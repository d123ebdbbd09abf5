#include "circuit/schedule.h"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace deepsecure {
namespace {

// Round-robin interleave of one level's AND gates across lane tags,
// in place over a gate_map slice: lane-major runs (all of column 0,
// then all of column 1, ...) become alternating picks, so
// capacity-split windows and their thread-pool shards mix lanes
// evenly — the layout NUMA shard affinity will want. Single-lane
// slices keep original order.
void interleave_by_lane(uint32_t* begin, uint32_t* end,
                        const std::vector<uint32_t>& lanes) {
  const size_t n = static_cast<size_t>(end - begin);
  if (n < 2) return;
  std::unordered_map<uint32_t, size_t> group_of;  // lane -> groups slot
  std::vector<std::vector<uint32_t>> groups;      // first-appearance order
  // Construction order is lane-major, so most gates repeat the previous
  // gate's lane and skip the map.
  uint32_t last_lane = lanes[*begin];
  size_t last_group = 0;
  groups.emplace_back();
  group_of.emplace(last_lane, 0);
  for (uint32_t* p = begin; p != end; ++p) {
    if (lanes[*p] != last_lane) {
      last_lane = lanes[*p];
      const auto [it, fresh] = group_of.try_emplace(last_lane, groups.size());
      if (fresh) groups.emplace_back();
      last_group = it->second;
    }
    groups[last_group].push_back(*p);
  }
  if (groups.size() < 2) return;
  uint32_t* out = begin;
  for (size_t round = 0; out != end; ++round)
    for (const auto& g : groups)
      if (round < g.size()) *out++ = g[round];
}

// Levelization (file header): the gate_map of the scheduled order.
std::vector<uint32_t> levelized_order(const Circuit& c) {
  const size_t n = c.gates.size();
  auto is_and = [&c](size_t i) -> uint32_t {
    return c.gates[i].op == GateOp::kAnd ? 1 : 0;
  };

  // Pass 1, in reverse: each gate's AND-height r, the number of AND
  // gates between it and the sinks (r = 0 for a gate nothing reads,
  // else max over consumers of r + 1 if the gate is an AND). Placing
  // gate i at level H - r(i), H = max r, puts it at the latest level
  // its consumers allow (ALAP). need[w] = 1 + max r over the consumers
  // of w, 0 while w has none.
  std::vector<uint32_t> need(c.num_wires, 0);
  std::vector<uint32_t> key(n);  // r now, the sort key from pass 2 on
  uint32_t max_level = 0;
  for (size_t i = n; i-- > 0;) {
    const Gate& g = c.gates[i];
    const uint32_t below = need[g.out];
    const uint32_t r = below == 0 ? 0 : below - 1 + is_and(i);
    need[g.a] = std::max(need[g.a], r + 1);
    need[g.b] = std::max(need[g.b], r + 1);
    key[i] = r;
    max_level = std::max(max_level, r);
  }

  // Pass 2: window fill. A level's ANDs drain in windows of
  // kScheduleWindow, so its last window is usually partial. Top it up
  // with ANDs of the next level whose inputs are already readable
  // (ready[w] = first level at which w can be read: an AND output one
  // level after its gate, an XOR output at its gate's level, since a
  // level's XORs run before its ANDs). The pulled ANDs are taken in
  // gate order, so the result stays a pure function of the netlist.
  // The sort key 2 * level + is_and puts a level's XORs before its
  // ANDs.
  std::vector<uint32_t>& ready = need;  // storage reuse
  ready[kConst0] = ready[kConst1] = 0;
  for (const auto* ins :
       {&c.garbler_inputs, &c.evaluator_inputs, &c.state_inputs})
    for (Wire w : *ins) ready[w] = 0;
  std::vector<uint32_t> and_offset(max_level + 2, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t lvl = max_level - key[i];
    const uint32_t and_bit = is_and(i);
    key[i] = 2 * lvl + and_bit;
    ready[c.gates[i].out] = lvl + and_bit;
    and_offset[lvl + 1] += and_bit;
  }
  for (size_t k = 1; k < and_offset.size(); ++k)
    and_offset[k] += and_offset[k - 1];
  std::vector<uint32_t> ands(and_offset.back());  // by level, gate order
  {
    std::vector<uint32_t> pos(and_offset.begin(), and_offset.end() - 1);
    for (size_t i = 0; i < n; ++i)
      if (key[i] & 1) ands[pos[key[i] / 2]++] = static_cast<uint32_t>(i);
  }
  size_t lost = 0;  // ANDs the level below pulled out of this one
  for (uint32_t lvl = 0; lvl < max_level; ++lvl) {
    const size_t held = and_offset[lvl + 1] - and_offset[lvl] - lost;
    size_t room = (kScheduleWindow - held % kScheduleWindow) % kScheduleWindow;
    lost = 0;
    for (size_t k = and_offset[lvl + 1]; room > 0 && k < and_offset[lvl + 2];
         ++k) {
      const Gate& g = c.gates[ands[k]];
      if (ready[g.a] > lvl || ready[g.b] > lvl) continue;
      key[ands[k]] = 2 * lvl + 1;
      ready[g.out] = lvl + 1;
      --room;
      ++lost;
    }
  }

  // Pass 3: stable counting sort by key — the levelized order.
  // Correctness: a level-L gate's producers sit at levels <= L (an AND
  // producer at most L - 1); same-level producers can only be XORs,
  // which sort earlier in the level, and stability keeps same-level XOR
  // chains in their original (topological) order. Width: all ANDs of a
  // level are independent, so the only same-level drain is the
  // capacity cap.
  std::vector<uint32_t> offset(2 * (max_level + 1) + 1, 0);
  for (size_t i = 0; i < n; ++i) ++offset[key[i] + 1];
  for (size_t k = 1; k < offset.size(); ++k) offset[k] += offset[k - 1];

  std::vector<uint32_t> gate_map(n);
  {
    std::vector<uint32_t> pos(offset.begin(), offset.end() - 1);
    for (size_t i = 0; i < n; ++i)
      gate_map[pos[key[i]]++] = static_cast<uint32_t>(i);
  }

  // Pass 4: lane interleave within each level's AND run.
  if (!c.gate_lanes.empty())
    for (uint32_t lvl = 0; lvl <= max_level; ++lvl)
      interleave_by_lane(gate_map.data() + offset[2 * lvl + 1],
                         gate_map.data() + offset[2 * lvl + 2],
                         c.gate_lanes);
  return gate_map;
}

}  // namespace

ScheduleResult schedule_circuit(const Circuit& c) {
  ScheduleResult r;
  r.gate_map = levelized_order(c);

  // Wires, inputs, outputs, and state bindings are unchanged; only the
  // gate list (and its lane tags) is gathered through the permutation.
  const size_t n = c.gates.size();
  Circuit& s = r.circuit;
  s.name = c.name;
  s.garbler_inputs = c.garbler_inputs;
  s.evaluator_inputs = c.evaluator_inputs;
  s.state_inputs = c.state_inputs;
  s.state_next = c.state_next;
  s.outputs = c.outputs;
  s.num_wires = c.num_wires;
  s.gates.resize(n);
  if (!c.gate_lanes.empty()) s.gate_lanes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    s.gates[i] = c.gates[r.gate_map[i]];
    if (!c.gate_lanes.empty()) s.gate_lanes[i] = c.gate_lanes[r.gate_map[i]];
  }
  return r;
}

Circuit allocate_label_slots(const Circuit& c,
                             const std::vector<uint32_t>& order) {
  // One reverse walk of `order` does the gather, the liveness and the
  // renumbering together. Walking backwards, a wire becomes live at its
  // last read (the first time the walk meets it) and dies at the gate
  // that defines it, whose slot then returns to the free list for the
  // gates before it. The LIFO free list hands out the most recently
  // freed — and most likely cached — slot first.
  constexpr Wire kUnbound = ~Wire{0};
  std::vector<Wire> slot_of(c.num_wires, kUnbound);
  slot_of[kConst0] = kConst0;
  slot_of[kConst1] = kConst1;
  std::vector<Wire> free_slots;
  Wire fresh = 2;
  auto take = [&]() -> Wire {
    if (free_slots.empty()) return fresh++;
    const Wire s = free_slots.back();
    free_slots.pop_back();
    return s;
  };
  auto bind = [&](Wire w) -> Wire {
    Wire& s = slot_of[w];
    if (s == kUnbound) s = take();
    return s;
  };
  auto bind_all = [&](const std::vector<Wire>& ws) {
    std::vector<Wire> out(ws.size());
    for (size_t i = 0; i < ws.size(); ++i) out[i] = bind(ws[i]);
    return out;
  };

  Circuit v;
  v.name = c.name;
  // Read after the last gate: live to the end of the walk.
  v.outputs = bind_all(c.outputs);
  v.state_next = bind_all(c.state_next);

  const size_t n = order.size();
  v.gates.resize(n);
  // The gather and the slot lookups are random accesses over arrays far
  // larger than cache: prefetch the gate kAhead steps ahead, and its
  // wires' slot entries once it has arrived.
  constexpr size_t kAhead = 32, kNear = 16;
  for (size_t i = n; i-- > 0;) {
    if (i >= kAhead) __builtin_prefetch(&c.gates[order[i - kAhead]]);
    if (i >= kNear) {
      const Gate& p = c.gates[order[i - kNear]];
      __builtin_prefetch(&slot_of[p.out]);
      __builtin_prefetch(&slot_of[p.a]);
      __builtin_prefetch(&slot_of[p.b]);
    }
    const Gate& g = c.gates[order[i]];
    Gate& out = v.gates[i];
    out.op = g.op;
    out.out = slot_of[g.out];
    if (out.out == kUnbound) {
      // Never read. An XOR writes at once, so its slot is free again
      // right after. A batched AND writes only when its window drains,
      // possibly after later gates ran: its slot must be one that no
      // later gate uses, i.e. a fresh one.
      out.out = g.op == GateOp::kAnd ? fresh++ : take();
    }
    free_slots.push_back(out.out);
    // Bound after the output is freed, so a wire whose last read is this
    // gate may share its slot with the gate's output (read first,
    // written after).
    out.a = bind(g.a);
    out.b = bind(g.b);
  }

  // Inputs not read by any gate still get distinct slots: binding writes
  // every input label before the first gate.
  v.garbler_inputs = bind_all(c.garbler_inputs);
  v.evaluator_inputs = bind_all(c.evaluator_inputs);
  v.state_inputs = bind_all(c.state_inputs);
  v.num_wires = fresh;
  return v;
}

std::shared_ptr<const Circuit> Circuit::gc_scheduled() const {
  // Unlike gc_walk_plan() (cheap scan, lock never held across it),
  // the scheduling pass is expensive enough that two concurrent first
  // callers on the SAME circuit — garbler and evaluator threads of an
  // in-process two-party run — should not both pay it. The mutex is
  // held across the compute but sharded by object identity, so
  // unrelated circuits scheduling concurrently almost never contend.
  static std::mutex mu[16];
  std::mutex& m =
      mu[(reinterpret_cast<std::uintptr_t>(this) >> 6) & 15];
  std::lock_guard<std::mutex> lock(m);
  if (!gc_sched_cache_ || gc_sched_cache_gates_ != gates.size()) {
    gc_sched_cache_ = std::make_shared<const Circuit>(
        allocate_label_slots(*this, levelized_order(*this)));
    gc_sched_cache_gates_ = gates.size();
  }
  return gc_sched_cache_;
}

WindowStats window_stats(const Circuit& c, size_t capacity) {
  const auto plan = c.gc_walk_plan();
  const uint32_t* fp = plan->flush_points.data();
  const uint32_t* fp_end = fp + plan->flush_points.size();

  WindowStats s;
  s.flush_points = plan->flush_points.size();
  std::vector<size_t> widths;
  size_t window = 0;
  auto drain = [&]() {
    if (window == 0) return;
    widths.push_back(window);
    window = 0;
  };
  for (uint32_t i = 0; i < static_cast<uint32_t>(c.gates.size()); ++i) {
    if (fp != fp_end && *fp == i) {
      drain();
      ++fp;
    }
    if (c.gates[i].op != GateOp::kAnd) continue;
    ++s.and_gates;
    if (++window == capacity) drain();
  }
  drain();

  s.windows = widths.size();
  if (widths.empty()) return s;
  s.mean = static_cast<double>(s.and_gates) / static_cast<double>(s.windows);
  std::sort(widths.begin(), widths.end());
  s.p50 = widths[widths.size() / 2];
  s.p95 = widths[std::min(widths.size() - 1, (widths.size() * 95) / 100)];
  s.max = widths.back();
  return s;
}

}  // namespace deepsecure
