#include "kernels/batchnorm.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "kernels/simd.hpp"

namespace pooch::kernels {

namespace {

struct BnGeom {
  std::int64_t batch = 0;
  std::int64_t channels = 0;
  std::int64_t spatial = 1;
  std::int64_t reduce = 0;  // batch * spatial
};

BnGeom make_geom(const Shape& s) {
  POOCH_CHECK_MSG(s.rank() >= 2, "batchnorm input must have rank >= 2");
  BnGeom g;
  g.batch = s[0];
  g.channels = s[1];
  for (int i = 2; i < s.rank(); ++i) g.spatial *= s[i];
  g.reduce = g.batch * g.spatial;
  POOCH_CHECK(g.reduce > 0);
  return g;
}

// Fast path. Channel blocks are independent, so the channel loop is
// partitioned; a block walks its channels in chunks small enough for the
// passes over one chunk to hit cache. Every statistic keeps the exact
// double-precision sequence of the reference loops: each (n, c) plane
// sums in one serial ascending-j chain from 0.0, and each channel folds
// its plane partials from 0.0 in ascending n. Chains of several planes
// are interleaved (kChains at a time) only to hide the add latency.

// Minimum floats per parallel block: a tensor under twice this runs
// inline, where a pool dispatch would cost more than the work.
constexpr std::int64_t kGrain = 1 << 13;
// Floats and channels per chunk. The channel cap sizes the per-chunk
// statistics arrays, which live on the stack.
constexpr std::int64_t kChunkFloats = 1 << 16;
constexpr std::int64_t kChunkChannels = 64;
constexpr int kChains = 8;
// Planes shorter than this are summed channel by channel, one plane at a
// time, with each channel's fold in a register: the chains of such short
// planes overlap in the core's out-of-order window by themselves, and
// grouping would only add work.
constexpr std::int64_t kShortPlane = 32;

/// The planes (n, c), c in [c0, c0 + cc), of one chunk, walked in
/// (n, c) order; `chan` is the chunk-local channel c - c0.
struct Chunk {
  const BnGeom& g;
  std::int64_t c0 = 0;
  std::int64_t cc = 0;

  std::int64_t offset(std::int64_t n, std::int64_t chan) const {
    return (n * g.channels + c0 + chan) * g.spatial;
  }
};

/// Runs group.operator()<K>(off, chan) on consecutive groups of the
/// chunk's planes in (n, c) order, K = kChains while that many remain,
/// then 4, 2 and 1: off[k] is plane k's first float, chan[k] its
/// chunk-local channel. A group's plane loop unrolls fully, so its K
/// chains stay in registers.
template <typename Group>
void for_plane_groups(const Chunk& ch, Group&& group) {
  std::int64_t n = 0, chan = 0;  // the next plane
  const auto run = [&]<int K>() {
    std::int64_t offs[K], chans[K];
    for (int k = 0; k < K; ++k) {
      offs[k] = ch.offset(n, chan);
      chans[k] = chan;
      if (++chan == ch.cc) {
        chan = 0;
        ++n;
      }
    }
    group.template operator()<K>(offs, chans);
  };
  std::int64_t left = ch.g.batch * ch.cc;
  for (; left >= kChains; left -= kChains) run.template operator()<kChains>();
  if (left >= 4) {
    run.template operator()<4>();
    left -= 4;
  }
  if (left >= 2) {
    run.template operator()<2>();
    left -= 2;
  }
  if (left == 1) run.template operator()<1>();
}

/// mean[c] and invstd[c] of the chunk's channels: two passes of plane
/// chains, each folded per channel in ascending n.
void chunk_stats(const float* xp, const Chunk& ch, float epsilon,
                 double* mean, double* invstd) {
  const std::int64_t S = ch.g.spatial;
  const double R = static_cast<double>(ch.g.reduce);
  if (S < kShortPlane) {
    for (std::int64_t c = 0; c < ch.cc; ++c) {
      double s = 0.0;  // mean[c]'s fold
      for (std::int64_t n = 0; n < ch.g.batch; ++n) {
        const float* r = xp + ch.offset(n, c);
        double acc = 0.0;
        for (std::int64_t j = 0; j < S; ++j) acc += r[j];
        s += acc;
      }
      const double m = s / R;
      mean[c] = m;
      double v = 0.0;
      for (std::int64_t n = 0; n < ch.g.batch; ++n) {
        const float* r = xp + ch.offset(n, c);
        double acc = 0.0;
        for (std::int64_t j = 0; j < S; ++j) {
          const double d = r[j] - m;
          acc += d * d;
        }
        v += acc;
      }
      invstd[c] = 1.0 / std::sqrt(v / R + static_cast<double>(epsilon));
    }
    return;
  }
  for (std::int64_t c = 0; c < ch.cc; ++c) mean[c] = invstd[c] = 0.0;
  for_plane_groups(ch, [&]<int K>(const std::int64_t* off,
                                  const std::int64_t* chan) {
    double acc[K];
    for (int k = 0; k < K; ++k) acc[k] = 0.0;
    for (std::int64_t j = 0; j < S; ++j) {
#pragma GCC unroll 8
      for (int k = 0; k < K; ++k) acc[k] += xp[off[k] + j];
    }
    for (int k = 0; k < K; ++k) mean[chan[k]] += acc[k];
  });
  for (std::int64_t c = 0; c < ch.cc; ++c) mean[c] /= R;
  for_plane_groups(ch, [&]<int K>(const std::int64_t* off,
                                  const std::int64_t* chan) {
    double m[K], acc[K];
    for (int k = 0; k < K; ++k) {
      m[k] = mean[chan[k]];
      acc[k] = 0.0;
    }
    for (std::int64_t j = 0; j < S; ++j) {
#pragma GCC unroll 8
      for (int k = 0; k < K; ++k) {
        const double d = xp[off[k] + j] - m[k];
        acc[k] += d * d;
      }
    }
    for (int k = 0; k < K; ++k) invstd[chan[k]] += acc[k];
  });
  for (std::int64_t c = 0; c < ch.cc; ++c) {
    invstd[c] = 1.0 / std::sqrt(invstd[c] / R + static_cast<double>(epsilon));
  }
}

/// Calls f.template operator()<W>(j) on consecutive spans [j, j + W)
/// covering [j, len): W = kW while that many remain, then halving widths
/// down to 4, then W = 1 per element. Short planes still get vectors.
template <int kW, typename F>
void for_spans(std::int64_t j, std::int64_t len, F&& f) {
  for (; j + kW <= len; j += kW) f.template operator()<kW>(j);
  if constexpr (kW > 1) for_spans<(kW / 2 >= 4 ? kW / 2 : 1)>(j, len, f);
}

/// Channel blocks of >= kGrain floats, each split into chunks:
/// body(chunk) per chunk, chunks of a block in ascending channel order.
template <typename Body>
void for_each_chunk(const BnGeom& g, ThreadPool* pool, Body body) {
  const std::int64_t per_channel = g.batch * g.spatial;
  const std::int64_t grain = std::max<std::int64_t>(
      1, (kGrain + per_channel - 1) / per_channel);
  const std::int64_t chunk = std::clamp<std::int64_t>(
      kChunkFloats / per_channel, 1, kChunkChannels);
  parallel_for(pool, g.channels, grain,
               [&](std::int64_t c0, std::int64_t c1, int) {
                 for (std::int64_t c = c0; c < c1; c += chunk) {
                   body(Chunk{g, c, std::min(chunk, c1 - c)});
                 }
               });
}

}  // namespace

void batchnorm_forward(const Tensor& x, const Tensor& gamma,
                       const Tensor& beta, Tensor& y,
                       const BatchNormAttrs& attrs, KernelContext& ctx) {
  const BnGeom g = make_geom(x.shape());
  POOCH_CHECK(y.shape() == x.shape());
  POOCH_CHECK(gamma.numel() == g.channels && beta.numel() == g.channels);
  KernelTimer timer(ctx, "batchnorm_forward");

  const float* xp = x.data();
  float* yp = y.data();
  const std::int64_t S = g.spatial;
  for_each_chunk(g, ctx.pool(), [&](const Chunk& ch) {
    double mean[kChunkChannels], invstd[kChunkChannels];
    chunk_stats(xp, ch, attrs.epsilon, mean, invstd);
    // Normalize: the reference's float expression, in vectors.
    for (std::int64_t c = 0; c < ch.cc; ++c) {
      const float m = static_cast<float>(mean[c]);
      const float is = static_cast<float>(invstd[c]);
      const float gm = gamma[ch.c0 + c];
      const float bt = beta[ch.c0 + c];
      for (std::int64_t n = 0; n < g.batch; ++n) {
        const float* xr = xp + ch.offset(n, c);
        float* yr = yp + ch.offset(n, c);
        for_spans<simd::kLanes>(0, S, [&]<int W>(std::int64_t j) {
          if constexpr (W == 1) {
            yr[j] = gm * (xr[j] - m) * is + bt;
          } else {
            typedef simd::Vec<float, W> V;
            simd::store(yr + j, gm * (simd::load<V>(xr + j) - m) * is + bt);
          }
        });
      }
    }
  });
}

void batchnorm_backward(const Tensor& x, const Tensor& gamma,
                        const Tensor& dy, Tensor* dx, Tensor& dgamma,
                        Tensor& dbeta, const BatchNormAttrs& attrs,
                        KernelContext& ctx) {
  const BnGeom g = make_geom(x.shape());
  POOCH_CHECK(dy.shape() == x.shape());
  POOCH_CHECK(dgamma.numel() == g.channels && dbeta.numel() == g.channels);
  if (dx) POOCH_CHECK(dx->shape() == x.shape());
  KernelTimer timer(ctx, "batchnorm_backward");

  const float* xp = x.data();
  const float* dyp = dy.data();
  float* dxp = dx ? dx->data() : nullptr;
  const std::int64_t S = g.spatial;
  const double R = static_cast<double>(g.reduce);
  for_each_chunk(g, ctx.pool(), [&](const Chunk& ch) {
    double mean[kChunkChannels], invstd[kChunkChannels];
    chunk_stats(xp, ch, attrs.epsilon, mean, invstd);

    // sum(dy) and sum(dy * xhat) in one pass: two chains per plane.
    double sum_dy[kChunkChannels], sum_dy_xhat[kChunkChannels];
    for (std::int64_t c = 0; c < ch.cc; ++c) sum_dy[c] = sum_dy_xhat[c] = 0.0;
    if (S < kShortPlane) {
      for (std::int64_t c = 0; c < ch.cc; ++c) {
        const double m = mean[c];
        const double is = invstd[c];
        for (std::int64_t n = 0; n < g.batch; ++n) {
          const float* xr = xp + ch.offset(n, c);
          const float* dyr = dyp + ch.offset(n, c);
          double a = 0.0, b = 0.0;
          for (std::int64_t j = 0; j < S; ++j) {
            const double d = dyr[j];
            a += d;
            b += d * (xr[j] - m) * is;
          }
          sum_dy[c] += a;
          sum_dy_xhat[c] += b;
        }
      }
    } else {
      for_plane_groups(ch, [&]<int K>(const std::int64_t* off,
                                      const std::int64_t* chan) {
        double m[K], is[K], a[K], b[K];
        for (int k = 0; k < K; ++k) {
          m[k] = mean[chan[k]];
          is[k] = invstd[chan[k]];
          a[k] = b[k] = 0.0;
        }
        for (std::int64_t j = 0; j < S; ++j) {
#pragma GCC unroll 8
          for (int k = 0; k < K; ++k) {
            const double d = dyp[off[k] + j];
            a[k] += d;
            b[k] += d * (xp[off[k] + j] - m[k]) * is[k];
          }
        }
        for (int k = 0; k < K; ++k) {
          sum_dy[chan[k]] += a[k];
          sum_dy_xhat[chan[k]] += b[k];
        }
      });
    }
    for (std::int64_t c = 0; c < ch.cc; ++c) {
      dgamma[ch.c0 + c] = static_cast<float>(sum_dy_xhat[c]);
      dbeta[ch.c0 + c] = static_cast<float>(sum_dy[c]);
    }
    if (!dxp) return;

    // dx = (gamma * invstd / R) * (R*dy - sum_dy - xhat * sum_dy_xhat),
    // the reference's double expression, in vectors.
    for (std::int64_t c = 0; c < ch.cc; ++c) {
      const double m = mean[c];
      const double is = invstd[c];
      const double k = static_cast<double>(gamma[ch.c0 + c]) * is / R;
      const double sdy = sum_dy[c];
      const double sdx = sum_dy_xhat[c];
      for (std::int64_t n = 0; n < g.batch; ++n) {
        const std::int64_t base = ch.offset(n, c);
        const float* xr = xp + base;
        const float* dyr = dyp + base;
        float* dxr = dxp + base;
        for_spans<simd::kLanes / 2>(0, S, [&]<int W>(std::int64_t j) {
          if constexpr (W == 1) {
            const double xhat = (xr[j] - m) * is;
            dxr[j] = static_cast<float>(k * (R * dyr[j] - sdy - xhat * sdx));
          } else {
            typedef simd::Vec<float, W> F;
            typedef simd::Vec<double, W> D;
            const D xv = __builtin_convertvector(simd::load<F>(xr + j), D);
            const D dyv = __builtin_convertvector(simd::load<F>(dyr + j), D);
            const D xhat = (xv - m) * is;
            simd::store(dxr + j, __builtin_convertvector(
                                     k * (R * dyv - sdy - xhat * sdx), F));
          }
        });
      }
    }
  });
}

// --- reference oracles: the original naive loops ---

namespace {

void ref_stats(const Tensor& x, const BnGeom& g, float epsilon,
               std::vector<double>& mean, std::vector<double>& invstd) {
  mean.assign(static_cast<std::size_t>(g.channels), 0.0);
  invstd.assign(static_cast<std::size_t>(g.channels), 0.0);
  const float* xp = x.data();
  for (std::int64_t c = 0; c < g.channels; ++c) {
    const std::size_t ci = static_cast<std::size_t>(c);
    for (std::int64_t n = 0; n < g.batch; ++n) {
      const float* row = xp + (n * g.channels + c) * g.spatial;
      double acc = 0.0;
      for (std::int64_t j = 0; j < g.spatial; ++j) acc += row[j];
      mean[ci] += acc;
    }
    mean[ci] /= static_cast<double>(g.reduce);
    const double m = mean[ci];
    for (std::int64_t n = 0; n < g.batch; ++n) {
      const float* row = xp + (n * g.channels + c) * g.spatial;
      double acc = 0.0;
      for (std::int64_t j = 0; j < g.spatial; ++j) {
        const double d = row[j] - m;
        acc += d * d;
      }
      invstd[ci] += acc;
    }
    const double var = invstd[ci] / static_cast<double>(g.reduce);
    invstd[ci] = 1.0 / std::sqrt(var + static_cast<double>(epsilon));
  }
}

}  // namespace

void batchnorm_forward_ref(const Tensor& x, const Tensor& gamma,
                           const Tensor& beta, Tensor& y,
                           const BatchNormAttrs& attrs) {
  const BnGeom g = make_geom(x.shape());
  POOCH_CHECK(y.shape() == x.shape());
  POOCH_CHECK(gamma.numel() == g.channels && beta.numel() == g.channels);

  std::vector<double> mean, invstd;
  ref_stats(x, g, attrs.epsilon, mean, invstd);

  const float* xp = x.data();
  float* yp = y.data();
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t c = 0; c < g.channels; ++c) {
      const std::size_t ci = static_cast<std::size_t>(c);
      const float m = static_cast<float>(mean[ci]);
      const float is = static_cast<float>(invstd[ci]);
      const float gm = gamma[c];
      const float bt = beta[c];
      const std::int64_t base = (n * g.channels + c) * g.spatial;
      for (std::int64_t j = 0; j < g.spatial; ++j) {
        yp[base + j] = gm * (xp[base + j] - m) * is + bt;
      }
    }
  }
}

void batchnorm_backward_ref(const Tensor& x, const Tensor& gamma,
                            const Tensor& dy, Tensor* dx, Tensor& dgamma,
                            Tensor& dbeta, const BatchNormAttrs& attrs) {
  const BnGeom g = make_geom(x.shape());
  POOCH_CHECK(dy.shape() == x.shape());
  POOCH_CHECK(dgamma.numel() == g.channels && dbeta.numel() == g.channels);
  if (dx) POOCH_CHECK(dx->shape() == x.shape());

  std::vector<double> mean, invstd;
  ref_stats(x, g, attrs.epsilon, mean, invstd);

  std::vector<double> sum_dy(static_cast<std::size_t>(g.channels), 0.0);
  std::vector<double> sum_dy_xhat(static_cast<std::size_t>(g.channels), 0.0);
  const float* xp = x.data();
  const float* dyp = dy.data();
  for (std::int64_t c = 0; c < g.channels; ++c) {
    const std::size_t ci = static_cast<std::size_t>(c);
    const double m = mean[ci];
    const double is = invstd[ci];
    for (std::int64_t n = 0; n < g.batch; ++n) {
      const std::int64_t base = (n * g.channels + c) * g.spatial;
      double a = 0.0, b = 0.0;
      for (std::int64_t j = 0; j < g.spatial; ++j) {
        const double d = dyp[base + j];
        a += d;
        b += d * (xp[base + j] - m) * is;
      }
      sum_dy[ci] += a;
      sum_dy_xhat[ci] += b;
    }
    dgamma[c] = static_cast<float>(sum_dy_xhat[ci]);
    dbeta[c] = static_cast<float>(sum_dy[ci]);
  }
  if (!dx) return;

  float* dxp = dx->data();
  const double R = static_cast<double>(g.reduce);
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t c = 0; c < g.channels; ++c) {
      const std::size_t ci = static_cast<std::size_t>(c);
      const double m = mean[ci];
      const double is = invstd[ci];
      const double k = static_cast<double>(gamma[c]) * is / R;
      const std::int64_t base = (n * g.channels + c) * g.spatial;
      for (std::int64_t j = 0; j < g.spatial; ++j) {
        const double xhat = (xp[base + j] - m) * is;
        dxp[base + j] = static_cast<float>(
            k * (R * dyp[base + j] - sum_dy[ci] - xhat * sum_dy_xhat[ci]));
      }
    }
  }
}

}  // namespace pooch::kernels
