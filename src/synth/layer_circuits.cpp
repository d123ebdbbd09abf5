#include "synth/layer_circuits.h"

#include <stdexcept>

#include "synth/mult.h"

namespace deepsecure::synth {
namespace {

size_t pool_out_dim(size_t in, size_t k, size_t stride) {
  if (in < k) throw std::invalid_argument("pool window larger than input");
  return (in - k) / stride + 1;
}

struct Compiler {
  Builder& b;
  FixedFormat fmt;

  std::vector<Bus> apply(const Shape3& shape, std::vector<Bus> x,
                         const LayerSpec& layer) {
    return std::visit([&](const auto& l) { return apply_one(shape, x, l); },
                      layer);
  }

  std::vector<Bus> apply_one(const Shape3& shape, const std::vector<Bus>& x,
                             const FcLayer& l) {
    const size_t in = shape.flat();
    if (!l.mask.empty() && l.mask.size() != in * l.out)
      throw std::invalid_argument("FC mask size mismatch");
    std::vector<Bus> out(l.out);
    // All weight inputs are allocated before all biases (weight order).
    std::vector<std::vector<Bus>> w(l.out);
    std::vector<std::vector<uint8_t>> mask(l.out);
    for (size_t o = 0; o < l.out; ++o) {
      mask[o].assign(in, 1);
      w[o].assign(in, Bus{});
      for (size_t i = 0; i < in; ++i) {
        if (!l.mask.empty() && !l.mask[o * in + i]) {
          mask[o][i] = 0;
          continue;
        }
        w[o][i] = input_fixed(b, Party::kEvaluator, fmt);
      }
    }
    std::vector<Bus> bias(l.out);
    if (l.has_bias)
      for (size_t o = 0; o < l.out; ++o)
        bias[o] = input_fixed(b, Party::kEvaluator, fmt);

    for (size_t o = 0; o < l.out; ++o) {
      // One lane per output neuron (independent dot products) — the
      // scheduling pass interleaves them into wide AND windows.
      b.set_lane(static_cast<uint32_t>(o));
      // Pruned entries carry empty buses; compact them out.
      std::vector<Bus> xs, ws;
      for (size_t i = 0; i < in; ++i) {
        if (!mask[o][i]) continue;
        xs.push_back(x[i]);
        ws.push_back(w[o][i]);
      }
      Bus acc = xs.empty() ? constant_bus(b, 0, fmt.total_bits)
                           : dot(b, xs, ws, fmt.frac_bits);
      if (l.has_bias) acc = add(b, acc, bias[o]);
      out[o] = acc;
    }
    return out;
  }

  std::vector<Bus> apply_one(const Shape3& shape, const std::vector<Bus>& x,
                             const ConvLayer& l) {
    const size_t oh = pool_out_dim(shape.h, l.k, l.stride);
    const size_t ow = pool_out_dim(shape.w, l.k, l.stride);
    // Weights first (order: oc, ic, ky, kx), then biases.
    std::vector<Bus> w(l.out_ch * shape.c * l.k * l.k);
    for (auto& bus : w) bus = input_fixed(b, Party::kEvaluator, fmt);
    std::vector<Bus> bias(l.out_ch);
    if (l.has_bias)
      for (auto& bus : bias) bus = input_fixed(b, Party::kEvaluator, fmt);

    auto in_at = [&](size_t c, size_t y, size_t xx) -> const Bus& {
      return x[(c * shape.h + y) * shape.w + xx];
    };
    auto w_at = [&](size_t oc, size_t ic, size_t ky, size_t kx) -> const Bus& {
      return w[((oc * shape.c + ic) * l.k + ky) * l.k + kx];
    };

    std::vector<Bus> out(l.out_ch * oh * ow);
    for (size_t oc = 0; oc < l.out_ch; ++oc) {
      for (size_t oy = 0; oy < oh; ++oy) {
        for (size_t ox = 0; ox < ow; ++ox) {
          // One lane per output pixel (independent dot products).
          b.set_lane(static_cast<uint32_t>((oc * oh + oy) * ow + ox));
          std::vector<Bus> xs, ws;
          xs.reserve(shape.c * l.k * l.k);
          for (size_t ic = 0; ic < shape.c; ++ic)
            for (size_t ky = 0; ky < l.k; ++ky)
              for (size_t kx = 0; kx < l.k; ++kx) {
                xs.push_back(in_at(ic, oy * l.stride + ky, ox * l.stride + kx));
                ws.push_back(w_at(oc, ic, ky, kx));
              }
          Bus acc = dot(b, xs, ws, fmt.frac_bits);
          if (l.has_bias) acc = add(b, acc, bias[oc]);
          out[(oc * oh + oy) * ow + ox] = acc;
        }
      }
    }
    return out;
  }

  std::vector<Bus> apply_one(const Shape3& shape, const std::vector<Bus>& x,
                             const PoolLayer& l) {
    const size_t oh = pool_out_dim(shape.h, l.k, l.stride);
    const size_t ow = pool_out_dim(shape.w, l.k, l.stride);
    auto in_at = [&](size_t c, size_t y, size_t xx) -> const Bus& {
      return x[(c * shape.h + y) * shape.w + xx];
    };
    std::vector<Bus> out(shape.c * oh * ow);
    for (size_t c = 0; c < shape.c; ++c) {
      for (size_t oy = 0; oy < oh; ++oy) {
        for (size_t ox = 0; ox < ow; ++ox) {
          b.set_lane(static_cast<uint32_t>((c * oh + oy) * ow + ox));
          Bus acc;
          if (l.kind == PoolKind::kMax) {
            for (size_t ky = 0; ky < l.k; ++ky)
              for (size_t kx = 0; kx < l.k; ++kx) {
                const Bus& v = in_at(c, oy * l.stride + ky, ox * l.stride + kx);
                acc = acc.empty() ? v : max_signed(b, acc, v);
              }
          } else {
            for (size_t ky = 0; ky < l.k; ++ky)
              for (size_t kx = 0; kx < l.k; ++kx) {
                const Bus& v = in_at(c, oy * l.stride + ky, ox * l.stride + kx);
                acc = acc.empty() ? v : add(b, acc, v);
              }
            acc = mult_const_fixed(
                b, acc, 1.0 / static_cast<double>(l.k * l.k), fmt);
          }
          out[(c * oh + oy) * ow + ox] = acc;
        }
      }
    }
    return out;
  }

  std::vector<Bus> apply_one(const Shape3&, const std::vector<Bus>& x,
                             const ActLayer& l) {
    std::vector<Bus> out(x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      b.set_lane(static_cast<uint32_t>(i));
      out[i] = activation(b, x[i], l.kind, fmt);
    }
    return out;
  }

  std::vector<Bus> apply_one(const Shape3&, const std::vector<Bus>& x,
                             const ArgmaxLayer&) {
    return {argmax(b, x)};
  }
};

}  // namespace

Shape3 layer_output_shape(const Shape3& in, const LayerSpec& layer) {
  if (const auto* fc = std::get_if<FcLayer>(&layer))
    return Shape3{1, 1, fc->out};
  if (const auto* conv = std::get_if<ConvLayer>(&layer))
    return Shape3{pool_out_dim(in.h, conv->k, conv->stride),
                  pool_out_dim(in.w, conv->k, conv->stride), conv->out_ch};
  if (const auto* pool = std::get_if<PoolLayer>(&layer))
    return Shape3{pool_out_dim(in.h, pool->k, pool->stride),
                  pool_out_dim(in.w, pool->k, pool->stride), in.c};
  if (std::holds_alternative<ActLayer>(layer)) return in;
  // Argmax: index bits packed into a single pseudo-element.
  return Shape3{1, 1, 1};
}

Shape3 model_output_shape(const ModelSpec& spec) {
  Shape3 s = spec.input;
  for (const auto& l : spec.layers) s = layer_output_shape(s, l);
  return s;
}

size_t layer_weight_count(const Shape3& in, const LayerSpec& layer) {
  if (const auto* fc = std::get_if<FcLayer>(&layer)) {
    size_t n = 0;
    if (fc->mask.empty()) {
      n = in.flat() * fc->out;
    } else {
      for (uint8_t m : fc->mask) n += m ? 1 : 0;
    }
    if (fc->has_bias) n += fc->out;
    return n;
  }
  if (const auto* conv = std::get_if<ConvLayer>(&layer)) {
    size_t n = conv->out_ch * in.c * conv->k * conv->k;
    if (conv->has_bias) n += conv->out_ch;
    return n;
  }
  return 0;
}

size_t model_weight_count(const ModelSpec& spec) {
  Shape3 s = spec.input;
  size_t n = 0;
  for (const auto& l : spec.layers) {
    n += layer_weight_count(s, l);
    s = layer_output_shape(s, l);
  }
  return n;
}

Circuit compile_model(const ModelSpec& spec) {
  Builder b(spec.name);
  Compiler c{b, spec.fmt};
  Shape3 shape = spec.input;
  std::vector<Bus> x(shape.flat());
  for (auto& bus : x) bus = input_fixed(b, Party::kGarbler, spec.fmt);
  for (const auto& layer : spec.layers) {
    x = c.apply(shape, std::move(x), layer);
    shape = layer_output_shape(shape, layer);
  }
  for (const Bus& bus : x) b.outputs(bus);
  return b.build();
}

std::vector<Circuit> compile_model_layers(const ModelSpec& spec) {
  std::vector<Circuit> out;
  Shape3 shape = spec.input;
  size_t idx = 0;
  for (const auto& layer : spec.layers) {
    Builder b(spec.name + ".layer" + std::to_string(idx++));
    Compiler c{b, spec.fmt};
    // Activations arrive as garbler-class inputs; the protocol driver
    // binds them to carried labels (except for the very first layer,
    // where they are the client's actual data bits).
    std::vector<Bus> x(shape.flat());
    const size_t bus_width = spec.fmt.total_bits;
    for (auto& bus : x) bus = input_bus(b, Party::kGarbler, bus_width);
    auto y = c.apply(shape, std::move(x), layer);
    for (const Bus& bus : y) b.outputs(bus);
    out.push_back(b.build());
    shape = layer_output_shape(shape, layer);
  }
  return out;
}

}  // namespace deepsecure::synth
