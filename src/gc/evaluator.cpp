#include "gc/garble.h"

#include <stdexcept>

#include "crypto/aes128.h"
#include "crypto/hash_backend.h"
#include "gc/batch_walk.h"
#include "gc/block_io.h"
#include "support/thread_pool.h"

namespace deepsecure {

Labels Evaluator::evaluate(const Circuit& c, const Labels& garbler_labels,
                           const Labels& evaluator_labels,
                           const Labels& state_labels, Labels* state_next) {
  if (garbler_labels.size() != c.garbler_inputs.size() ||
      evaluator_labels.size() != c.evaluator_inputs.size() ||
      state_labels.size() != c.state_inputs.size())
    throw std::invalid_argument("evaluate: input label count mismatch");

  // Walk the same view the garbler walked (see garbler.cpp): tables and
  // tweaks are consumed in its order, and labels are bound and read
  // through its label slots.
  std::shared_ptr<const Circuit> sched;
  const Circuit& walk = opt_.schedule ? *(sched = c.gc_scheduled()) : c;

  Labels w(walk.num_wires);
  w[kConst0] = ch_.recv_block();
  w[kConst1] = ch_.recv_block();

  // The evaluator-input permute bits, kept per label slot: a one-row
  // AND reads its operand b's slot while that slot still holds the
  // evaluator input (the walk plan's kind pass guarantees it), so the
  // other slots' entries are never read and need no reset.
  std::vector<Block> perm(gc_permute_blocks(evaluator_labels.size()));
  if (!perm.empty()) ch_.recv_bytes(perm.data(), perm.size() * sizeof(Block));
  if (r_.size() < walk.num_wires) r_.resize(walk.num_wires);
  for (size_t i = 0; i < evaluator_labels.size(); ++i)
    r_[walk.evaluator_inputs[i]] =
        (gc_permute_word(perm.data(), i) >> (i % 64)) & 1;

  for (size_t i = 0; i < garbler_labels.size(); ++i)
    w[walk.garbler_inputs[i]] = garbler_labels[i];
  for (size_t i = 0; i < evaluator_labels.size(); ++i)
    w[walk.evaluator_inputs[i]] = evaluator_labels[i];
  for (size_t i = 0; i < state_labels.size(); ++i)
    w[walk.state_inputs[i]] = state_labels[i];

  // Framed mode self-describes (length-prefixed window frames), so the
  // reader needs no total; monolithic mode must know the stream length.
  BlockReader tables(ch_, 1 << 15, opt_.framed_tables);
  if (!opt_.framed_tables) tables.expect(walk.gc_walk_plan()->table_rows);
  if (opt_.pipeline == GcPipeline::kScalar)
    evaluate_gates_scalar(walk, w, tables);
  else
    evaluate_gates_batched(walk, w, tables);

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

// Retained scalar reference path (see garbler.cpp for rationale).
void Evaluator::evaluate_gates_scalar(const Circuit& c, Labels& w,
                                      BlockReader& tables) {
  gc_walk(
      c, [&](const Gate& g) { w[g.out] = w[g.a] ^ w[g.b]; },
      [&](const Gate& g, bool one_row) {
        const Block wa = w[g.a];
        const Block wb = w[g.b];
        const uint64_t j0 = tweak_++;
        const uint64_t j1 = tweak_++;
        Block wgc{};
        if (one_row) {
          if (r_[g.b]) wgc = wa;
        } else {
          const Block tg = tables.get();
          wgc = gc_hash(wa, j0);
          if (wa.lsb()) wgc ^= tg;
        }
        const Block te = tables.get();
        Block wec = gc_hash(wb, j1);
        if (wb.lsb()) wec ^= te ^ wa;
        w[g.out] = wgc ^ wec;
      });
}

// Batched pipeline, mirroring Garbler::garble_gates_batched: the same
// flush schedule applies because both sides defer exactly the AND gates.
// One hash per table row (two per two-row gate, one per one-row gate);
// table rows are consumed at enqueue time, which keeps the read stream
// in gate order regardless of flush timing.
//
// Every gate's output is the XOR over its rows of the row's hash and a
// term the enqueue selects, so the drain is one loop for both kinds:
// two-row, H(W_a) ^ lsb(W_a)·tg and H(W_b) ^ lsb(W_b)·(te ^ W_a);
// one-row, H(W_b) ^ lsb(W_b)·(te ^ W_a) ^ r·W_a.
//
// With a ThreadPool, a draining window splits into contiguous per-shard
// slices exactly like the garbler's: tweaks were assigned and table
// rows consumed at enqueue time on this thread, so shards only hash
// their slice and combine into disjoint output wires — no channel
// access, and the evaluation result is identical to single-threaded.
void Evaluator::evaluate_gates_batched(const Circuit& c, Labels& w,
                                       BlockReader& tables) {
  const HashBackend& be =
      opt_.hash_backend != nullptr ? *opt_.hash_backend : hash_backend();
  EvalWindowLine line(kGcMaxBatchWindow);

  auto flush = [&](bool /*level_boundary*/) {
    // The reader side is frame-agnostic (frames self-describe), so the
    // flush reason is irrelevant here — only the drain schedule matters.
    const size_t n = line.size;
    if (n == 0) return;
    auto shard = [&](size_t lo, size_t hi) {
      const uint32_t p0 = line.first[lo];
      gc_hash_batch(be, line.ins + p0, line.tweaks + p0, line.hashes + p0,
                    line.first[hi] - p0);
      for (size_t i = lo; i < hi; ++i) {
        Block out{};
        for (uint32_t k = line.first[i]; k < line.first[i + 1]; ++k)
          out ^= line.hashes[k] ^ line.terms[k];
        w[line.outs[i]] = out;  // disjoint slots across shards
      }
    };
    if (opt_.pool != nullptr)
      opt_.pool->parallel_shards(n, opt_.min_shard_gates, shard);
    else
      shard(0, n);
    line.size = 0;
  };

  gc_batched_walk(
      c,
      [&](const Gate& g) { w[g.out] = w[g.a] ^ w[g.b]; },  // free-XOR
      [&](const Gate& g, bool one_row) {
        const size_t i = line.size++;
        uint32_t p = line.first[i];
        const Block wa = w[g.a];
        const Block wb = w[g.b];
        const uint64_t j0 = tweak_++;
        const uint64_t j1 = tweak_++;
        if (!one_row) {
          const Block tg = tables.get();
          line.ins[p] = wa;
          line.tweaks[p] = j0;
          line.terms[p++] = wa.lsb() ? tg : Block{};
        }
        const Block te = tables.get();
        Block term = wb.lsb() ? te ^ wa : Block{};
        if (one_row && r_[g.b]) term ^= wa;
        line.ins[p] = wb;
        line.tweaks[p] = j1;
        line.terms[p++] = term;
        line.first[i + 1] = p;
        line.outs[i] = g.out;
      },
      flush);
}

Labels Evaluator::recv_active(size_t n) {
  Labels labels(n);
  if (n > 0) ch_.recv_bytes(labels.data(), n * sizeof(Block));
  return labels;
}

void Evaluator::send_outputs(const Labels& labels) {
  if (!labels.empty())
    ch_.send_bytes(labels.data(), labels.size() * sizeof(Block));
}

BitVec Evaluator::decode_with_info(const Labels& labels) {
  const BitVec perm = ch_.recv_bits();
  if (perm.size() != labels.size())
    throw std::runtime_error("decode_with_info: size mismatch");
  BitVec bits(labels.size());
  for (size_t i = 0; i < labels.size(); ++i)
    bits[i] = (labels[i].lsb() ? 1u : 0u) ^ perm[i];
  return bits;
}

}  // namespace deepsecure
