// Generator self-check against coordinated omission.
//
// A benchmark-owned stub server answers every request at once, except that
// it stalls a single time for 50 ms. Driven by the open-loop generator, the
// stall must show up in the read p99 (requests due during the stall are
// charged for it) while the generator's send lag stays small (it kept its
// schedule). The same stub driven by a send-then-wait generator must FAIL
// the check: its sends slip behind the schedule for as long as the stall
// lasts.

#ifndef PERFBENCH_SELFCHECK_H_
#define PERFBENCH_SELFCHECK_H_

namespace perfbench {

struct SelfCheckResult {
  double stall_ms = 0.0;
  double open_p99_ms = 0.0;
  double open_lag_p99_ms = 0.0;
  double wait_p99_ms = 0.0;
  double wait_lag_p99_ms = 0.0;
  bool open_passes = false;  // must be true
  bool wait_passes = false;  // must be false
};

SelfCheckResult RunGeneratorSelfCheck();

}  // namespace perfbench

#endif  // PERFBENCH_SELFCHECK_H_
