#include "gc/garble.h"

#include <cstdlib>
#include <stdexcept>

#include "crypto/aes128.h"
#include "crypto/hash_backend.h"
#include "gc/batch_walk.h"
#include "gc/block_io.h"
#include "support/thread_pool.h"

namespace deepsecure {
namespace {

// Two-row half-gate (Zahur-Rosulek-Evans). ha0/ha1 = H(a0), H(a0^delta)
// under the gate's first tweak, hb0/hb1 = H(b0), H(b0^delta) under its
// second. Writes the garbler-half row tg and the evaluator-half row te;
// returns the output zero-label.
Block garble_two_row(Block a0, Block b0, Block ha0, Block ha1, Block hb0,
                     Block hb1, Block delta, Block* tg_row, Block* te_row) {
  Block tg = ha0 ^ ha1;
  if (b0.lsb()) tg ^= delta;
  Block wg = ha0;
  if (a0.lsb()) wg ^= tg;

  const Block te = hb0 ^ hb1 ^ a0;
  Block we = hb0;
  if (b0.lsb()) we ^= te ^ a0;

  *tg_row = tg;
  *te_row = te;
  return wg ^ we;
}

// One-row half-gate: b is an evaluator input, so its permute bit
// r = lsb(b0) is known to the evaluator. The evaluator half is the
// two-row gate's; the garbler half, a AND r, becomes the free term
// r·W_a.
Block garble_one_row(Block a0, Block b0, Block hb0, Block hb1,
                     Block* te_row) {
  const Block te = hb0 ^ hb1 ^ a0;
  Block we = hb0;
  if (b0.lsb()) we ^= te ^ a0;
  *te_row = te;
  return b0.lsb() ? we ^ a0 : we;
}

}  // namespace

uint64_t gc_stream_bytes(const Circuit& c) {
  return (2 + gc_permute_blocks(c.evaluator_inputs.size())) * sizeof(Block) +
         c.stats().table_bytes();
}

bool gc_schedule_default() {
  static const bool enabled = [] {
    const char* v = std::getenv("DEEPSECURE_NO_SCHEDULE");
    return v == nullptr || v[0] == '\0' ||
           (v[0] == '0' && v[1] == '\0');
  }();
  return enabled;
}

Garbler::Garbler(Channel& ch, Block seed, GcPipeline pipeline)
    : Garbler(ch, seed, GcOptions{.pipeline = pipeline}) {}

Garbler::Garbler(Channel& ch, Block seed, const GcOptions& opt)
    : ch_(ch), prg_(seed), opt_(opt) {
  delta_ = prg_.next_block();
  delta_.lo |= 1;  // point-and-permute: lsb(delta) = 1
}

Labels Garbler::fresh_zeros(size_t n) {
  Labels zeros(n);
  prg_.next_blocks(zeros.data(), n);
  return zeros;
}

Labels Garbler::garble(const Circuit& c, const Labels& garbler_zeros,
                       const Labels& evaluator_zeros, const Labels& state_zeros,
                       Labels* state_next) {
  if (garbler_zeros.size() != c.garbler_inputs.size() ||
      evaluator_zeros.size() != c.evaluator_inputs.size() ||
      state_zeros.size() != c.state_inputs.size())
    throw std::invalid_argument("garble: input label count mismatch");

  // The scheduled view renumbers wires onto recycled label slots
  // (circuit/schedule.h), so inputs are bound and outputs read through
  // the walked circuit, never through `c`. Both pipelines honor it so
  // scalar stays byte-identical to batched under the same options.
  std::shared_ptr<const Circuit> sched;
  const Circuit& walk = opt_.schedule ? *(sched = c.gc_scheduled()) : c;

  Labels w(walk.num_wires);
  // Constants: fresh labels each garbling; the evaluator receives the
  // *active* labels (value 0 for kConst0, value 1 for kConst1). Delta
  // never leaves this side.
  w[kConst0] = prg_.next_block();
  w[kConst1] = prg_.next_block();
  ch_.send_block(w[kConst0]);
  ch_.send_block(w[kConst1] ^ delta_);

  // The one-row ANDs' permute bits r = lsb(W_b^0), packed (garble.h).
  // They tell the evaluator nothing new: it holds W_b and b, and
  // r = lsb(W_b) ^ b.
  std::vector<Block> perm(gc_permute_blocks(evaluator_zeros.size()));
  for (size_t i = 0; i < evaluator_zeros.size(); ++i)
    gc_permute_word(perm.data(), i) |= uint64_t{evaluator_zeros[i].lsb()}
                                       << (i % 64);
  if (!perm.empty()) ch_.send_bytes(perm.data(), perm.size() * sizeof(Block));

  for (size_t i = 0; i < garbler_zeros.size(); ++i)
    w[walk.garbler_inputs[i]] = garbler_zeros[i];
  for (size_t i = 0; i < evaluator_zeros.size(); ++i)
    w[walk.evaluator_inputs[i]] = evaluator_zeros[i];
  for (size_t i = 0; i < state_zeros.size(); ++i)
    w[walk.state_inputs[i]] = state_zeros[i];

  BlockWriter tables(ch_, 1 << 15, opt_.framed_tables);
  if (opt_.pipeline == GcPipeline::kScalar)
    garble_gates_scalar(walk, w, tables);
  else
    garble_gates_batched(walk, w, tables);
  tables.flush();

  if (state_next != nullptr) {
    state_next->resize(walk.state_next.size());
    for (size_t i = 0; i < walk.state_next.size(); ++i)
      (*state_next)[i] = w[walk.state_next[i]];
  }
  Labels out(walk.outputs.size());
  for (size_t i = 0; i < walk.outputs.size(); ++i)
    out[i] = w[walk.outputs[i]];
  return out;
}

// Retained scalar reference path: one gc_hash call per hash. Kept for
// cross-checking the batched pipeline (byte-identical tables) and as the
// baseline in the garble-throughput benchmarks.
void Garbler::garble_gates_scalar(const Circuit& c, Labels& w,
                                  BlockWriter& tables) {
  gc_walk(
      c, [&](const Gate& g) { w[g.out] = w[g.a] ^ w[g.b]; },  // free-XOR
      [&](const Gate& g, bool one_row) {
        const Block a0 = w[g.a];
        const Block b0 = w[g.b];
        const uint64_t j0 = tweak_++;
        const uint64_t j1 = tweak_++;
        const Block hb0 = gc_hash(b0, j1);
        const Block hb1 = gc_hash(b0 ^ delta_, j1);
        Block tg, te;
        if (one_row) {
          w[g.out] = garble_one_row(a0, b0, hb0, hb1, &te);
        } else {
          w[g.out] = garble_two_row(a0, b0, gc_hash(a0, j0),
                                    gc_hash(a0 ^ delta_, j0), hb0, hb1,
                                    delta_, &tg, &te);
          tables.put(tg);
        }
        tables.put(te);
      });
}

// Batched pipeline: AND gates are enqueued into a window as hash pairs
// {x0, x0^delta} — a0 and b0 for a two-row gate, b0 alone for a one-row
// gate — and the window's pairs are hashed by gc_hash_pairs in one
// pipelined AES sweep. The window drains at the circuit's precomputed
// flush points (a gate reading a still-pending AND output), at capacity,
// and at the end of the gate list. Tweaks are assigned at enqueue time
// and tables are emitted in enqueue (= gate) order, so the byte stream
// is identical to the scalar schedule.
//
// With a ThreadPool, a draining window is split into contiguous
// per-thread shards — independent sub-windows of the same flush
// schedule, since every gate in the window reads only non-pending wires.
// Each shard runs its own gc_hash_pairs sweep over its gates' pairs into
// disjoint slices of the scratch buffers; table rows still stream out
// serially in enqueue order afterwards, so the transcript stays
// byte-identical to single-threaded garbling.
void Garbler::garble_gates_batched(const Circuit& c, Labels& w,
                                   BlockWriter& tables) {
  const HashBackend& be =
      opt_.hash_backend != nullptr ? *opt_.hash_backend : hash_backend();
  GarbleWindowLine line(kGcMaxBatchWindow);

  auto flush = [&](bool level_boundary) {
    const size_t n = line.size;
    if (n == 0) {
      // A level whose AND count is an exact multiple of the window
      // capacity drains entirely via capacity flushes; its boundary
      // then arrives on an empty window and must still cut the frame,
      // or the level's tables would silently merge into the next
      // level's frame.
      if (level_boundary) tables.mark_window(true);
      return;
    }
    auto shard = [&](size_t lo, size_t hi) {
      const uint32_t p0 = line.first[lo];
      gc_hash_pairs(be, line.x0 + p0, delta_, line.tweaks + p0,
                    line.hashes + 2 * p0, line.first[hi] - p0);
      for (size_t i = lo; i < hi; ++i) {
        const uint32_t p = line.first[i];
        const Block* h = line.hashes + 2 * p;
        const Block out =
            line.first[i + 1] - p == 1
                ? garble_one_row(line.tabs[p], line.x0[p], h[0], h[1],
                                 &line.tabs[p])
                : garble_two_row(line.x0[p], line.x0[p + 1], h[0], h[1],
                                 h[2], h[3], delta_, &line.tabs[p],
                                 &line.tabs[p + 1]);
        w[line.outs[i]] = out;  // disjoint slots across shards
      }
    };
    if (opt_.pool != nullptr)
      opt_.pool->parallel_shards(n, opt_.min_shard_gates, shard);
    else
      shard(0, n);
    for (uint32_t k = 0; k < line.first[n]; ++k) tables.put(line.tabs[k]);
    // Frames cut only at level boundaries: a capacity drain mid-level
    // keeps buffering so wide scheduled levels ship as one frame.
    tables.mark_window(level_boundary);
    line.size = 0;
  };

  gc_batched_walk(
      c,
      [&](const Gate& g) { w[g.out] = w[g.a] ^ w[g.b]; },  // free-XOR
      [&](const Gate& g, bool one_row) {
        const size_t i = line.size++;
        uint32_t p = line.first[i];
        const uint64_t j0 = tweak_++;
        const uint64_t j1 = tweak_++;
        if (one_row) {
          line.tabs[p] = w[g.a];  // a0, until the drain writes the row
        } else {
          line.x0[p] = w[g.a];
          line.tweaks[p++] = j0;
        }
        line.x0[p] = w[g.b];
        line.tweaks[p++] = j1;
        line.first[i + 1] = p;
        line.outs[i] = g.out;
      },
      flush);
}

void Garbler::send_active(const BitVec& bits, const Labels& zeros) {
  if (bits.size() != zeros.size())
    throw std::invalid_argument("send_active size mismatch");
  std::vector<Block> active(bits.size());
  for (size_t i = 0; i < bits.size(); ++i)
    active[i] = bits[i] ? (zeros[i] ^ delta_) : zeros[i];
  if (!active.empty())
    ch_.send_bytes(active.data(), active.size() * sizeof(Block));
}

BitVec Garbler::decode_outputs(const Labels& output_zeros) {
  std::vector<Block> received(output_zeros.size());
  if (!received.empty())
    ch_.recv_bytes(received.data(), received.size() * sizeof(Block));
  BitVec bits(output_zeros.size());
  for (size_t i = 0; i < output_zeros.size(); ++i) {
    if (received[i] == output_zeros[i]) {
      bits[i] = 0;
    } else if (received[i] == (output_zeros[i] ^ delta_)) {
      bits[i] = 1;
    } else {
      throw std::runtime_error("decode_outputs: label not in wire range");
    }
  }
  return bits;
}

void Garbler::send_decode_info(const Labels& output_zeros) {
  BitVec perm(output_zeros.size());
  for (size_t i = 0; i < output_zeros.size(); ++i)
    perm[i] = output_zeros[i].lsb() ? 1 : 0;
  ch_.send_bits(perm);
}

}  // namespace deepsecure
