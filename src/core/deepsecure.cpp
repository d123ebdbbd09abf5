#include "core/deepsecure.h"

#include <stdexcept>

#include "net/party.h"

namespace deepsecure {
namespace {

synth::ActKind map_act(nn::Act kind, const SecureInferenceOptions& opt) {
  switch (kind) {
    case nn::Act::kReLU: return synth::ActKind::kReLU;
    case nn::Act::kTanh: return opt.tanh_variant;
    case nn::Act::kSigmoid: return opt.sigmoid_variant;
    case nn::Act::kIdentity: return synth::ActKind::kIdentity;
    case nn::Act::kSquare:
      throw std::invalid_argument(
          "square activation is the HE baseline; no GC realization");
  }
  throw std::invalid_argument("unknown activation");
}

Block effective_seed(const SecureInferenceOptions& opt) {
  if (opt.seed == Block{}) return Prg::from_os_entropy().next_block();
  return opt.seed;
}

}  // namespace

synth::ModelSpec model_spec_from_network(const nn::Network& net,
                                         const SecureInferenceOptions& opt,
                                         const std::string& name) {
  synth::ModelSpec spec;
  spec.name = name;
  spec.fmt = opt.fmt;
  const nn::Shape in = net.input_shape();
  spec.input = synth::Shape3{in.h, in.w, in.c};

  for (const auto& layer : net.layers()) {
    if (const auto* d = dynamic_cast<const nn::DenseLayer*>(layer.get())) {
      synth::FcLayer fc;
      fc.out = d->out_dim();
      fc.has_bias = true;
      fc.mask = d->mask;
      spec.layers.push_back(fc);
    } else if (const auto* c =
                   dynamic_cast<const nn::Conv2DLayer*>(layer.get())) {
      synth::ConvLayer conv;
      conv.k = c->kernel();
      conv.stride = c->stride();
      conv.out_ch = c->out_channels();
      conv.has_bias = true;
      spec.layers.push_back(conv);
    } else if (const auto* p =
                   dynamic_cast<const nn::PoolLayer*>(layer.get())) {
      synth::PoolLayer pool;
      pool.kind = p->kind() == nn::Pool::kMax ? synth::PoolKind::kMax
                                              : synth::PoolKind::kMean;
      pool.k = p->window();
      pool.stride = p->stride();
      spec.layers.push_back(pool);
    } else if (const auto* a =
                   dynamic_cast<const nn::ActivationLayer*>(layer.get())) {
      spec.layers.push_back(synth::ActLayer{map_act(a->kind(), opt)});
    } else {
      throw std::logic_error("model_spec_from_network: unsupported layer");
    }
  }
  // Softmax output stage -> argmax (inference label).
  spec.layers.push_back(synth::ArgmaxLayer{});
  return spec;
}

BitVec sample_bits(const nn::VecF& sample, FixedFormat fmt) {
  BitVec bits;
  bits.reserve(sample.size() * fmt.total_bits);
  for (float v : sample) {
    const BitVec b = Fixed::from_double(static_cast<double>(v), fmt).to_bits();
    bits.insert(bits.end(), b.begin(), b.end());
  }
  return bits;
}

BitVec weight_bits(const nn::Network& net, FixedFormat fmt) {
  const std::vector<Fixed> q = nn::quantize_weights(net, fmt);
  BitVec bits;
  bits.reserve(q.size() * fmt.total_bits);
  for (const Fixed& v : q) {
    const BitVec b = v.to_bits();
    bits.insert(bits.end(), b.begin(), b.end());
  }
  return bits;
}

namespace {

SecureInferenceResult run_protocol(const std::vector<Circuit>& chain,
                                   const BitVec& data,
                                   const BitVec& weights, Block seed) {
  SecureInferenceResult res;
  for (const Circuit& c : chain) {
    const auto s = c.stats();
    res.gates += synth::GateCount{s.num_xor, s.num_and};
    res.table_bytes += s.table_bytes();
  }

  BitVec client_out, server_out;
  SessionTrace g_trace, e_trace;
  const auto stats = run_two_party(
      [&](Channel& ch) {
        GarblerSession session(ch, seed);
        client_out = session.run_chain(chain, data);
        g_trace = session.trace();
      },
      [&](Channel& ch) {
        EvaluatorSession session(ch);
        server_out = session.run_chain(chain, weights);
        e_trace = session.trace();
      });
  if (client_out != server_out)
    throw std::logic_error("secure_infer: party outputs diverged");

  res.label = from_bits(client_out);
  res.client_to_server_bytes = stats.a_to_b_bytes;
  res.server_to_client_bytes = stats.b_to_a_bytes;
  res.wall_seconds = stats.wall_seconds;
  res.garbler_trace = std::move(g_trace);
  res.evaluator_trace = std::move(e_trace);
  return res;
}

}  // namespace

SecureInferenceResult secure_infer(const nn::Network& model,
                                   const nn::VecF& sample,
                                   const SecureInferenceOptions& opt) {
  const synth::ModelSpec spec = model_spec_from_network(model, opt);
  const std::vector<Circuit> chain =
      opt.per_layer ? synth::compile_model_layers(spec)
                    : std::vector<Circuit>{synth::compile_model(spec)};
  return run_protocol(chain, sample_bits(sample, opt.fmt),
                      weight_bits(model, opt.fmt), effective_seed(opt));
}

SecureInferenceResult secure_infer_outsourced(
    const nn::Network& model, const nn::VecF& sample,
    const SecureInferenceOptions& opt) {
  const synth::ModelSpec spec = model_spec_from_network(model, opt);
  // Outsourcing wraps the whole model in one netlist with the XOR-share
  // reconstruction layer in front.
  const Circuit c = add_xor_sharing_layer(synth::compile_model(spec));

  // The (constrained) client only pads its input — Algorithm "client
  // side" of Figure 4.
  Prg pad = Prg::from_os_entropy();
  const XorShares shares = xor_share(sample_bits(sample, opt.fmt), pad);

  BitVec eval_in = shares.share_b;
  const BitVec wb = weight_bits(model, opt.fmt);
  eval_in.insert(eval_in.end(), wb.begin(), wb.end());

  return run_protocol({c}, shares.share_a, eval_in, effective_seed(opt));
}

PreprocessOutcome preprocess_pipeline(const nn::Dataset& train,
                                      const nn::Dataset& test,
                                      nn::Act activation,
                                      const PreprocessConfig& cfg,
                                      const SecureInferenceOptions& opt) {
  PreprocessOutcome out;
  const size_t features = train.x.empty() ? 1 : train.x[0].size();
  const size_t classes = train.num_classes;

  // Baseline model on raw features.
  Rng rng(424242);
  nn::Network base(nn::Shape{1, 1, features});
  base.dense(cfg.hidden, rng).act(activation).dense(classes, rng);
  nn::train(base, train, cfg.retrain);
  out.baseline_accuracy = nn::accuracy(base, test);
  out.cost_before = cost::cost_of_model(model_spec_from_network(base, opt));

  // (i) Data projection: learn the dictionary, retrain on the embedding.
  nn::Dataset train2 = train;
  nn::Dataset test2 = test;
  if (cfg.enable_projection) {
    out.projection = preprocess::learn_projection(train, cfg.projection);
    train2 = out.projection.embed(train);
    test2 = out.projection.embed(test);
  }

  Rng rng2(434343);
  nn::Network condensed(
      nn::Shape{1, 1, train2.x.empty() ? 1 : train2.x[0].size()});
  condensed.dense(cfg.hidden, rng2).act(activation).dense(classes, rng2);
  nn::train(condensed, train2, cfg.retrain);

  // (ii) DL network pre-processing: prune + retrain.
  if (cfg.enable_pruning)
    out.prune = preprocess::prune_and_retrain(condensed, train2, cfg.prune);

  // Deployment step: rescale so the GC fixed-point datapath cannot wrap.
  nn::scale_for_fixed(condensed, train2.x, opt.fmt);

  out.condensed_accuracy = nn::accuracy(condensed, test2);
  out.cost_after =
      cost::cost_of_model(model_spec_from_network(condensed, opt));
  out.model = std::move(condensed);
  return out;
}

}  // namespace deepsecure
