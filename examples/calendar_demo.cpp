// A shared calendar on weighted voting — an homage to Violet, the
// distributed calendar system Gifford's voting work grew out of.
//
// Each user's calendar is its own file suite with its own replication
// policy (the department's shared room calendar is more available than a
// personal one), and booking a meeting is a cross-suite transaction: the
// slot is taken in every attendee's calendar atomically or not at all.

#include <cstdio>

#include "src/core/cluster.h"
#include "src/core/multi_txn.h"

using namespace wvote;  // NOLINT: example brevity

namespace {

// Appends an entry to a newline-separated calendar if the slot is free.
// Returns false if the slot is already taken.
bool AddEntry(std::string* calendar, const std::string& slot, const std::string& what) {
  if (calendar->find(slot + " ") != std::string::npos) {
    return false;
  }
  *calendar += slot + " " + what + "\n";
  return true;
}

Task<Status> BookMeeting(Coordinator* coord, std::vector<SuiteClient*> attendees,
                         std::string slot, std::string what) {
  MultiSuiteTransaction txn(coord);
  for (SuiteClient* attendee : attendees) {
    Result<std::string> calendar = co_await txn.Read(attendee);
    if (!calendar.ok()) {
      co_await txn.Abort();
      co_return calendar.status();
    }
    std::string updated = calendar.value();
    if (!AddEntry(&updated, slot, what)) {
      co_await txn.Abort();
      co_return FailedPreconditionError(attendee->config().suite_name + " is busy at " +
                                        slot);
    }
    Status st = txn.Write(attendee, std::move(updated));
    if (!st.ok()) {
      co_await txn.Abort();
      co_return st;
    }
  }
  co_return co_await txn.Commit();
}

}  // namespace

int main() {
  Cluster cluster;
  for (const char* s : {"srv-1", "srv-2", "srv-3"}) {
    cluster.AddRepresentative(s);
  }

  // Alice's calendar: majority quorums. The conference room: read-one (its
  // availability matters to everyone checking for free slots).
  SuiteConfig alice_cfg = SuiteConfig::MakeUniform("cal/alice", {"srv-1", "srv-2"}, 1, 2);
  SuiteConfig bob_cfg = SuiteConfig::MakeUniform("cal/bob", {"srv-2", "srv-3"}, 1, 2);
  SuiteConfig room_cfg =
      SuiteConfig::MakeUniform("cal/room-12", {"srv-1", "srv-2", "srv-3"}, 1, 3);
  WVOTE_CHECK(cluster.CreateSuite(alice_cfg, "").ok());
  WVOTE_CHECK(cluster.CreateSuite(bob_cfg, "").ok());
  WVOTE_CHECK(cluster.CreateSuite(room_cfg, "").ok());

  SuiteClient* alice = cluster.AddClient("assistant", alice_cfg);
  SuiteClient* bob = cluster.AddClient("assistant", bob_cfg);
  SuiteClient* room = cluster.AddClient("assistant", room_cfg);
  Coordinator* coord = cluster.coordinator_of("assistant");

  // Book a design review for Alice + Bob + the room.
  Status st = cluster.RunTask(
      BookMeeting(coord, {alice, bob, room}, "tue-10:00", "design review"));
  std::printf("book tue-10:00 design review (alice, bob, room-12): %s\n",
              st.ToString().c_str());

  // A conflicting booking must fail atomically: bob is free at tue-10:00?
  // No — he now has the design review; nothing may be written anywhere.
  st = cluster.RunTask(BookMeeting(coord, {bob, room}, "tue-10:00", "1:1 with carol"));
  std::printf("book tue-10:00 1:1 (bob, room-12): %s\n", st.ToString().c_str());

  // A different slot books fine.
  st = cluster.RunTask(BookMeeting(coord, {bob, room}, "tue-11:00", "1:1 with carol"));
  std::printf("book tue-11:00 1:1 (bob, room-12): %s\n", st.ToString().c_str());

  // Print the calendars.
  for (SuiteClient* cal : {alice, bob, room}) {
    Result<std::string> contents = cluster.RunTask(cal->ReadOnce());
    std::printf("\n%s:\n%s", cal->config().suite_name.c_str(),
                contents.ok() ? contents.value().c_str() : "<error>\n");
  }

  // The room calendar survives any two servers failing for reads (r=1).
  cluster.net().FindHost("srv-1")->Crash();
  cluster.net().FindHost("srv-2")->Crash();
  SuiteClientOptions fast;
  fast.probe_timeout = Duration::Millis(300);
  SuiteClient* checker = cluster.AddClient("checker", room_cfg, fast);
  Result<std::string> during_outage = cluster.RunTask(checker->ReadOnce());
  std::printf("\nroom-12 readable with srv-1+srv-2 down: %s\n",
              during_outage.ok() ? "yes" : during_outage.status().ToString().c_str());
  return 0;
}
