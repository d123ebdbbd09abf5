#include "cost/calibration.h"

#include <algorithm>
#include <cmath>

#include "circuit/builder.h"
#include "gc/garble.h"
#include "gc/ot.h"
#include "net/party.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace deepsecure::cost {
namespace {

// Wide chains so gate evaluation, not channel latency, dominates.
Circuit make_and_chain(size_t gates) {
  Builder b("cal_and");
  std::vector<Wire> ring;
  for (int i = 0; i < 64; ++i) ring.push_back(b.input(Party::kGarbler));
  for (size_t g = 0; g < gates; ++g) {
    const Wire a = ring[g % ring.size()];
    const Wire y = ring[(g + 7) % ring.size()];
    ring[g % ring.size()] = b.and_(a, y);
  }
  b.output(ring[0]);
  return b.build();
}

Circuit make_xor_chain(size_t gates) {
  Builder b("cal_xor", /*enable_cse=*/false);
  std::vector<Wire> ring;
  for (int i = 0; i < 64; ++i) ring.push_back(b.input(Party::kGarbler));
  for (size_t g = 0; g < gates; ++g) {
    const Wire a = ring[g % ring.size()];
    const Wire y = ring[(g + 7) % ring.size()];
    ring[g % ring.size()] = b.xor_(a, y);
  }
  b.output(ring[0]);
  return b.build();
}

// Both parties meet on the channel before their clocks start, so thread
// start-up and setup stay out of the timed span.
void rendezvous(Channel& ch) {
  ch.send_u64(0);
  (void)ch.recv_u64();
}

// Seconds for one garble + evaluate pass of `c`, input labels already
// transferred: the slower party's time from the rendezvous to the
// decoded outputs. `garble_s` gets the garbler's garble() time.
double time_circuit(const Circuit& c, double* garble_s) {
  double garbler_s = 0.0, evaluator_s = 0.0;
  run_two_party(
      [&](Channel& ch) {
        Garbler g(ch, Block{123, 321});
        const Labels zeros = g.fresh_zeros(c.garbler_inputs.size());
        g.send_active(BitVec(c.garbler_inputs.size(), 0), zeros);
        rendezvous(ch);
        Stopwatch sw;
        const Labels out = g.garble(c, zeros, {}, {});
        *garble_s = sw.seconds();
        g.decode_outputs(out);
        garbler_s = sw.seconds();
      },
      [&](Channel& ch) {
        Evaluator e(ch);
        const Labels labels = e.recv_active(c.garbler_inputs.size());
        rendezvous(ch);
        Stopwatch sw;
        const Labels out = e.evaluate(c, labels, {}, {});
        e.send_outputs(out);
        evaluator_s = sw.seconds();
      });
  return std::max(garbler_s, evaluator_s);
}

// Gates per second through the garble + evaluate pipeline, best of
// several passes: one pass of a small circuit lasts milliseconds, so a
// single descheduled thread can halve a one-shot reading.
double run_circuit_rate(const Circuit& c, uint64_t gate_count,
                        double* garbler_ns_per_gate) {
  constexpr int kReps = 5;
  double best_s = HUGE_VAL, best_garble_s = HUGE_VAL;
  for (int rep = 0; rep < kReps; ++rep) {
    double garble_s = 0.0;
    best_s = std::min(best_s, time_circuit(c, &garble_s));
    best_garble_s = std::min(best_garble_s, garble_s);
  }
  if (garbler_ns_per_gate != nullptr)
    *garbler_ns_per_gate =
        best_garble_s * 1e9 / static_cast<double>(gate_count);
  return static_cast<double>(gate_count) / best_s;
}

}  // namespace

double time_ot_extension(size_t m) {
  // Both parties finish setup (the 128 base OTs) before the rendezvous;
  // the slower side's transfer time is the measurement.
  double send_s = 0, recv_s = 0;
  run_two_party(
      [&](Channel& ch) {
        Prg prg(Block{5, 6});
        OtExtSender s(ch);
        s.setup(prg);
        std::vector<Block> zeros(m);
        prg.next_blocks(zeros.data(), m);
        rendezvous(ch);
        Stopwatch sw;
        s.send_correlated(zeros, Block{1, 1});
        send_s = sw.seconds();
      },
      [&](Channel& ch) {
        Prg prg(Block{7, 8});
        OtExtReceiver r(ch);
        r.setup(prg);
        BitVec choices(m);
        Rng rng(3);
        for (auto& b : choices) b = rng.next_bool();
        rendezvous(ch);
        Stopwatch sw;
        r.recv(choices);
        recv_s = sw.seconds();
      });
  return std::max(send_s, recv_s);
}

Calibration calibrate(size_t gates) {
  Calibration cal;
  {
    const Circuit c = make_and_chain(gates);
    cal.non_xor_gates_per_s =
        run_circuit_rate(c, c.stats().num_and, &cal.ns_per_non_xor);
  }
  {
    const Circuit c = make_xor_chain(gates);
    cal.xor_gates_per_s =
        run_circuit_rate(c, c.stats().num_xor, &cal.ns_per_xor);
  }
  {
    const size_t m = 20000;
    cal.ot_per_s = static_cast<double>(m) / time_ot_extension(m);
  }
  return cal;
}

}  // namespace deepsecure::cost
