// Closed-form availability/latency for the schemes Gifford positions
// weighted voting against. Read-one/write-all and majority are degenerate
// vote assignments (the paper's observation), so their numbers also fall out
// of VotingAnalysis; the explicit forms here serve as independent oracles in
// tests and label the comparison benches.

#ifndef WVOTE_SRC_ANALYSIS_BASELINE_MODEL_H_
#define WVOTE_SRC_ANALYSIS_BASELINE_MODEL_H_

#include "src/analysis/model.h"

namespace wvote {

class BaselineAnalysis {
 public:
  // Read-one/write-all: a read needs any operational replica; a write needs
  // every replica operational.
  static double RowaReadAvailability(const SuiteModel& model);
  static double RowaWriteAvailability(const SuiteModel& model);
  static Duration RowaReadLatencyAllUp(const SuiteModel& model);   // min
  static Duration RowaWriteLatencyAllUp(const SuiteModel& model);  // max

  // Majority consensus with equal votes.
  static double MajorityAvailability(const SuiteModel& model);
  static Duration MajorityLatencyAllUp(const SuiteModel& model);

  // Primary copy: everything rides on one designated replica.
  static double PrimaryCopyAvailability(const SuiteModel& model, size_t primary_index);
  static Duration PrimaryCopyLatency(const SuiteModel& model, size_t primary_index);
};

}  // namespace wvote

#endif  // WVOTE_SRC_ANALYSIS_BASELINE_MODEL_H_
