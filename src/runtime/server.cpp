#include "runtime/server.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "crypto/hash_backend.h"
#include "obs/trace.h"
#include "runtime/frame.h"
#include "runtime/reactor.h"

namespace deepsecure::runtime {

namespace {

uint64_t seconds_to_ns(double s) {
  return s <= 0 ? 0 : static_cast<uint64_t>(s * 1e9);
}

// Base-OT setup runs inside whichever call first needs OT (the first
// on-demand infer or the first prefetch); observe it once, after that
// call.
void observe_ot_setup(obs::Histogram& h, const EvaluatorSession& session,
                      bool was_ready) {
  if (!was_ready && session.ot_ready())
    h.observe(seconds_to_ns(session.trace().setup_s));
}

}  // namespace

InferenceServer::InferenceServer(const synth::ModelSpec& spec, BitVec weights,
                                 ServerConfig cfg)
    : chain_(synth::compile_model_layers(spec)),
      weights_(std::move(weights)),
      cfg_(cfg),
      // Fingerprint over the gate order sessions will walk — computing
      // it here also warms the per-circuit schedule cache once, before
      // the first session arrives.
      fingerprint_(chain_fingerprint(chain_, cfg.stream.schedule)),
      listener_(cfg.port, cfg.backlog),
      // The lane listener is always ephemeral: its port travels in the
      // hello ack, so clients never configure it and it cannot collide
      // with a pinned primary port.
      lane_listener_(0, cfg.backlog) {
  size_t want = 0;
  for (const Circuit& c : chain_) {
    want += c.evaluator_inputs.size();
    expected_table_bytes_ += gc_stream_bytes(c);
  }
  if (weights_.size() != want)
    throw std::invalid_argument("InferenceServer: weight bit count mismatch");
}

InferenceServer::~InferenceServer() { stop(); }

void InferenceServer::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  running_ = true;
  event_core_ = std::make_unique<EventCore>(*this);
  event_core_->start();
}

void InferenceServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;  // claim the shutdown; start() is one-shot
  }
  // The reactor owns its connections and listeners end to end; every
  // live session runs the normal teardown path (budget settlement
  // included) before stop() returns.
  event_core_->stop();
  event_core_.reset();
}

// ---------------------------------------------------------------------
// Protocol steps, driven per connection by EventCore.

const char* InferenceServer::validate_hello(const Hello& hello) const {
  if (hello.magic != kProtocolMagic || hello.version != kProtocolVersion)
    return "protocol magic/version mismatch";
  if (hello.flags.schedule != cfg_.stream.schedule)
    return "netlist scheduling mismatch";
  if (hello.fingerprint != fingerprint_)
    return "model chain fingerprint mismatch";
  if (hello.flags.framed_tables != cfg_.stream.framed_tables)
    return "table framing mismatch";
  return nullptr;
}

// One kInfer (on-demand byte stream, or the online phase against a
// prefetched artifact). The pooled path consumes its artifact and
// returns the budget reservation BEFORE evaluating — one artifact, one
// evaluation.
bool InferenceServer::handle_infer_frame(const Frame& f, BufferedChannel& ch,
                                         EvaluatorSession& session,
                                         SessionState& state) {
  const uint64_t t0 = obs::now_ns();
  if (f.payload.empty()) {
    // On-demand: the client garbles on the request path.
    obs::Span span("server.infer_ondemand");
    const bool ot_was_ready = session.ot_ready();
    session.run_chain(chain_, weights_);
    observe_ot_setup(h_ot_base_, session, ot_was_ready);
    h_infer_ondemand_.observe(obs::now_ns() - t0);
  } else {
    const uint64_t id = parse_id(f);
    EvalMaterial mat;
    bool found = false;
    {
      std::lock_guard<std::mutex> lk(state.mu);
      const auto it = state.store.find(id);
      if (it != state.store.end()) {
        mat = std::move(it->second);
        state.store.erase(it);
        state.reserved_bytes -= expected_table_bytes_;
        prefetch_bytes_.fetch_sub(expected_table_bytes_);
        found = true;
      }
    }
    if (!found) {
      send_error(ch, ErrorCode::kMaterial, "unknown prefetched material id");
      ch.flush();
      return false;
    }
    obs::Span span("server.infer_online");
    session.run_online(chain_, mat);
    h_infer_online_.observe(obs::now_ns() - t0);
    c_inferences_pooled_.add();
  }
  // The trace holds this run only (SessionTrace clears per run).
  h_eval_.observe(seconds_to_ns(session.trace().sum_eval()));
  h_ot_online_.observe(seconds_to_ns(session.trace().sum_ot()));
  ch.flush();
  c_inferences_served_.add();
  return true;
}

uint64_t InferenceServer::register_lane_token(
    const std::shared_ptr<SessionState>& state) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t token;
  do {
    token = token_prg_.next_u64();
  } while (token == 0 || lane_tokens_.count(token) != 0);
  lane_tokens_.emplace(token, state);
  return token;
}

void InferenceServer::unregister_lane_token(uint64_t token) {
  std::lock_guard<std::mutex> lock(mu_);
  lane_tokens_.erase(token);
}

std::shared_ptr<InferenceServer::SessionState> InferenceServer::attach_lane(
    uint64_t token, const char** reject) {
  std::shared_ptr<SessionState> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = lane_tokens_.find(token);
    if (it != lane_tokens_.end()) state = it->second;
  }
  if (state == nullptr) {
    *reject = "unknown lane token";
    return nullptr;
  }
  std::lock_guard<std::mutex> lk(state->mu);
  if (state->closed) {
    *reject = "session closed";
    return nullptr;
  }
  if (state->lane_attached) {
    *reject = "lane already attached";
    return nullptr;
  }
  state->lane_attached = true;
  return state;
}

void InferenceServer::settle_session_state(SessionState& state) {
  std::lock_guard<std::mutex> lk(state.mu);
  state.closed = true;
  if (state.reserved_bytes > 0) {
    prefetch_bytes_.fetch_sub(state.reserved_bytes);
    state.reserved_bytes = 0;
  }
  state.store.clear();
}

// One prefetch push (primary connection or lane). See server.h.
bool InferenceServer::handle_prefetch_push(const Frame& f, BufferedChannel& ch,
                                           EvaluatorSession& session,
                                           SessionState& state) {
  const uint64_t t0 = obs::now_ns();
  obs::Span span("server.prefetch_push");
  const uint64_t id = parse_id(f);
  {
    const char* reject = nullptr;
    ErrorCode code = ErrorCode::kUnspecified;
    std::unique_lock<std::mutex> lk(state.mu);
    if (state.closed) {
      reject = "session closed";
      code = ErrorCode::kInternal;
    } else if (state.store.count(id) != 0) {
      reject = "duplicate prefetched material id";
      code = ErrorCode::kMaterial;
    } else if (state.store.size() + state.pending_pushes >=
               cfg_.max_prefetch) {
      reject = "prefetch quota exceeded";
      code = ErrorCode::kQuota;
    }
    if (reject == nullptr) {
      // Global budget: reserve before reading the artifact (its size is
      // fixed by the compiled chain). fetch_add-then-check keeps the
      // reservation race-free across sessions; an overshoot is rolled
      // back before anyone else can starve on it. Always accounted
      // (prefetch_bytes() is a metric), only enforced when a budget is
      // configured.
      const uint64_t now = prefetch_bytes_.fetch_add(expected_table_bytes_) +
                           expected_table_bytes_;
      if (cfg_.max_prefetch_bytes > 0 && now > cfg_.max_prefetch_bytes) {
        prefetch_bytes_.fetch_sub(expected_table_bytes_);
        c_prefetches_rejected_.add();
        reject = "global prefetch byte budget exhausted";
        code = ErrorCode::kQuota;
      } else {
        state.reserved_bytes += expected_table_bytes_;
        ++state.pending_pushes;
      }
    }
    lk.unlock();  // never write to the wire while holding shared state
    if (reject != nullptr) {
      send_error(ch, code, reject);
      ch.flush();
      return false;
    }
  }

  // Settle this push's reservation and quota slot. A failed push
  // releases its bytes HERE, immediately — holding them until session
  // teardown would let one malformed push starve every other session's
  // prefetching for this session's remaining lifetime. If the session
  // closed while the material was in flight, teardown already released
  // the whole reservation (ours included): release nothing twice.
  auto settle = [&](bool keep_reservation) {
    std::lock_guard<std::mutex> lk(state.mu);
    --state.pending_pushes;
    if (state.closed) return false;
    if (!keep_reservation) {
      state.reserved_bytes -= expected_table_bytes_;
      prefetch_bytes_.fetch_sub(expected_table_bytes_);
    }
    return true;
  };

  EvalMaterial mat;
  const char* reject = nullptr;
  try {
    mat = recv_material(ch, expected_table_bytes_,
                        chain_.back().outputs.size());
    // Both sizes are exactly determined by the chain this server
    // compiled; a disagreeing artifact could never evaluate, so reject
    // it now instead of storing garbage and failing the kInfer that
    // draws it.
    if (mat.tables.size() != expected_table_bytes_ ||
        mat.decode_bits.size() != chain_.back().outputs.size()) {
      reject = "prefetched material does not match model chain";
    } else {
      // Offline OT: precompute + derandomize against the static weight
      // bits — after this the request path has no OT left.
      obs::Span ot_span("server.ot_offline");
      const uint64_t ot0 = obs::now_ns();
      const bool ot_was_ready = session.ot_ready();
      const OtPrecompReceiver pre = session.precompute_ot(weights_.size());
      observe_ot_setup(h_ot_base_, session, ot_was_ready);
      mat.eval_labels = session.recv_labels_derandomized(pre, weights_);
      h_ot_offline_.observe(obs::now_ns() - ot0);
    }
  } catch (...) {
    settle(/*keep_reservation=*/false);
    throw;  // transport-level failure: the connection is already dead
  }
  if (reject != nullptr) {
    settle(/*keep_reservation=*/false);
    send_error(ch, ErrorCode::kMaterial, reject);
    ch.flush();
    return false;
  }
  bool stored = false;
  {
    // Settle + store in ONE critical section: a teardown racing in
    // between could otherwise release the budget and clear the store
    // just before a stale artifact is parked in it.
    std::lock_guard<std::mutex> lk(state.mu);
    --state.pending_pushes;
    if (!state.closed) {
      state.store.emplace(id, std::move(mat));
      stored = true;
    }
    // else: torn down mid-push — teardown already settled the budget
    // (our reservation included), and the artifact has no session to
    // serve. Error sent below, outside the lock.
  }
  if (!stored) {
    send_error(ch, ErrorCode::kInternal, "session closed");
    ch.flush();
    return false;
  }
  send_id_frame(ch, FrameType::kPrefetchAck, id);
  ch.flush();
  c_materials_prefetched_.add();
  h_prefetch_push_.observe(obs::now_ns() - t0);
  return true;
}

std::string InferenceServer::stats_json() const {
  const obs::Snapshot s = metrics_.snapshot();
  // The phases that partition a connection's lifetime: parked (in epoll
  // between frames), dispatch (readiness → worker pickup), handshake,
  // recv_wait (a partially arrived frame) and serving a frame.
  // Sub-phases (subphase.*) nest inside these and are deliberately not
  // summed.
  static constexpr const char* kAccountedPhases[] = {
      "phase.handshake",     "phase.recv_wait", "phase.infer_ondemand",
      "phase.infer_online",  "phase.prefetch_push",
      "phase.parked",        "phase.dispatch",
  };
  double phase_total_s = 0;
  for (const char* name : kAccountedPhases) {
    const obs::Snapshot::Hist* h = s.find_hist(name);
    if (h != nullptr) phase_total_s += static_cast<double>(h->sum) / 1e9;
  }
  // Denominator: connection lifetimes — sessions plus prefetch lanes
  // (lanes contribute parked/recv_wait/prefetch time to the numerator,
  // so they must contribute their wall time here too).
  double wall_s = 0;
  for (const char* name : {"phase.session_wall", "phase.lane_wall"}) {
    const obs::Snapshot::Hist* h = s.find_hist(name);
    if (h != nullptr) wall_s += static_cast<double>(h->sum) / 1e9;
  }
  const double accounted =
      wall_s > 0 ? std::min(phase_total_s / wall_s, 1.0) : 0.0;
  // Resilience block: the chaos/self-healing counters live in the
  // PROCESS-WIDE registry (fault injection and client recovery are
  // infrastructure, like net.*), so this per-instance snapshot cannot
  // see them — surface them explicitly, next to the per-server shed
  // and phase-timeout counts.
  const obs::Snapshot g = obs::Registry::global().snapshot();
  const auto ull = [](uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  char resil[512];
  std::snprintf(
      resil, sizeof(resil),
      "\"resilience\":{\"fault.injected\":%llu,\"fault.short_read\":%llu,"
      "\"fault.short_write\":%llu,\"fault.delay\":%llu,\"fault.stall\":%llu,"
      "\"fault.reset\":%llu,\"fault.corrupt\":%llu,"
      "\"client.retries\":%llu,\"client.sessions_recovered\":%llu,"
      "\"pool.poisoned\":%llu,\"server.shed\":%llu,"
      "\"server.phase_timeouts\":%llu},",
      ull(g.counter_value("fault.injected")),
      ull(g.counter_value("fault.short_read")),
      ull(g.counter_value("fault.short_write")),
      ull(g.counter_value("fault.delay")),
      ull(g.counter_value("fault.stall")),
      ull(g.counter_value("fault.reset")),
      ull(g.counter_value("fault.corrupt")),
      ull(g.counter_value("client.retries")),
      ull(g.counter_value("client.sessions_recovered")),
      ull(g.counter_value("pool.poisoned")), ull(c_sessions_shed_.value()),
      ull(c_phase_timeouts_.value()));
  char head[384];
  std::snprintf(head, sizeof(head),
                "{\"sessions_active\":%llu,"
                "\"prefetch_bytes\":%llu,"
                "\"hash_backend\":\"%s\",\"cpu_features\":\"%s\","
                "\"accounting\":{\"phase_total_s\":%.6f,"
                "\"session_wall_s\":%.6f,\"accounted_fraction\":%.4f},",
                static_cast<unsigned long long>(sessions_active_.load()),
                static_cast<unsigned long long>(prefetch_bytes_.load()),
                hash_backend().name, hash_backend_cpu_features().c_str(),
                phase_total_s, wall_s, accounted);
  std::string out = head;
  out += resil;
  out += "\"metrics\":";
  out += s.to_json();
  out += "}";
  return out;
}

}  // namespace deepsecure::runtime
