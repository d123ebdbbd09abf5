// Host calibration subroutines (Section 3.1.1: "DeepSecure finds an
// estimation of the physical coefficients beta and alpha by running a
// set of subroutines"): garble + evaluate synthetic circuits over the
// in-memory channel and measure effective per-gate costs and the
// Section 4.4 throughput numbers (paper: 2.56M non-XOR/s, 5.11M XOR/s).
#pragma once

#include <cstddef>

namespace deepsecure::cost {

struct Calibration {
  double non_xor_gates_per_s = 0.0;  // garble+eval pipeline, best pass
  double xor_gates_per_s = 0.0;
  double ns_per_non_xor = 0.0;       // garbler-side cost
  double ns_per_xor = 0.0;
  double ot_per_s = 0.0;             // OT-extension label transfers / s
};

/// Seconds for one correlated OT-extension batch of `m` transfers over
/// the in-memory channel, setup (base OTs) excluded.
double time_ot_extension(size_t m);

/// Measure this host. `gates` controls the synthetic circuit size.
Calibration calibrate(size_t gates = 200000);

}  // namespace deepsecure::cost
