#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/dtype.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace pooch {
namespace {

TEST(Shape, BasicProperties) {
  Shape s{64, 3, 224, 224};
  EXPECT_EQ(s.rank(), 4);
  EXPECT_EQ(s.numel(), 64 * 3 * 224 * 224);
  EXPECT_EQ(s.dim(0), 64);
  EXPECT_EQ(s.dim(-1), 224);
  EXPECT_EQ(s.dim(-3), 3);
  EXPECT_EQ(s.to_string(), "(64, 3, 224, 224)");
}

TEST(Shape, EqualityAndWithDim) {
  Shape a{2, 3};
  Shape b{2, 3};
  Shape c{3, 2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.with_dim(1, 7), (Shape{2, 7}));
  EXPECT_EQ(a, (Shape{2, 3}));  // with_dim does not mutate
}

TEST(Shape, Flatten2d) {
  EXPECT_EQ((Shape{4, 3, 2, 2}).flatten2d(), (Shape{4, 12}));
  EXPECT_EQ((Shape{5, 7}).flatten2d(), (Shape{5, 7}));
}

TEST(Shape, RankZeroNumelIsOne) {
  Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(Shape, InvalidAccessThrows) {
  Shape s{2, 3};
  EXPECT_THROW(s.dim(2), Error);
  EXPECT_THROW(s.dim(-3), Error);
  EXPECT_THROW(Shape({-1, 2}), Error);
}

TEST(DType, Sizes) {
  EXPECT_EQ(dtype_size(DType::kF32), 4u);
  EXPECT_EQ(dtype_size(DType::kF16), 2u);
  EXPECT_EQ(dtype_size(DType::kI32), 4u);
  EXPECT_EQ(dtype_size(DType::kI8), 1u);
  EXPECT_STREQ(dtype_name(DType::kF32), "f32");
}

TEST(Tensor, ConstructAndFill) {
  Tensor t(Shape{2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.byte_size(), 24u);
  t.fill(2.5f);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, Index4And5) {
  Tensor t4(Shape{2, 3, 4, 5});
  EXPECT_EQ(t4.index4(0, 0, 0, 0), 0);
  EXPECT_EQ(t4.index4(1, 2, 3, 4), t4.numel() - 1);
  Tensor t5(Shape{2, 2, 2, 2, 2});
  EXPECT_EQ(t5.index5(1, 1, 1, 1, 1), 31);
}

TEST(Tensor, ReleaseAndMaterialize) {
  Tensor t(Shape{8});
  t.fill(1.0f);
  EXPECT_TRUE(t.materialized());
  t.release();
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.materialized());
  t.materialize();
  EXPECT_TRUE(t.materialized());
  EXPECT_EQ(t[3], 0.0f);  // rematerialized contents are zero
}

TEST(Tensor, ViewsShareMemoryAndCopiesOwnIt) {
  std::vector<float> memory(6, 1.0f);
  Tensor view = Tensor::view(Shape{2, 3}, memory.data());
  EXPECT_EQ(view.data(), memory.data());
  view[4] = 7.0f;
  EXPECT_EQ(memory[4], 7.0f);

  // A copy owns its elements; a move hands the view over.
  Tensor copy = view;
  EXPECT_NE(copy.data(), memory.data());
  EXPECT_EQ(copy[4], 7.0f);
  Tensor moved = std::move(view);
  EXPECT_EQ(moved.data(), memory.data());
  EXPECT_TRUE(view.empty());

  // Re-pointing keeps the shape; releasing drops the view, not the
  // memory.
  moved.view_at(memory.data() + 3);
  EXPECT_EQ(moved.shape(), (Shape{2, 3}));
  EXPECT_EQ(moved[1], 7.0f);
  moved.release();
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(moved.shape(), (Shape{2, 3}));
  EXPECT_EQ(memory[4], 7.0f);

  // An unbound view carries only its shape.
  const Tensor unbound = Tensor::view(Shape{4}, nullptr);
  EXPECT_TRUE(unbound.empty());
  EXPECT_FALSE(unbound.materialized());
  EXPECT_EQ(unbound.numel(), 4);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t(Shape{4});
  EXPECT_NO_THROW(t.at(3));
  EXPECT_THROW(t.at(4), Error);
  EXPECT_THROW(t.at(-1), Error);
}

TEST(TensorOps, FillUniformInRange) {
  Tensor t(Shape{1000});
  Rng rng(5);
  fill_uniform(t, rng, -2.0f, 3.0f);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t[i], -2.0f);
    EXPECT_LT(t[i], 3.0f);
  }
}

TEST(TensorOps, MaxAbsDiffAndAllclose) {
  Tensor a(Shape{4});
  Tensor b(Shape{4});
  a.fill(1.0f);
  b.fill(1.0f);
  b[2] = 1.5f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.5f);
  EXPECT_FALSE(allclose(a, b));
  b[2] = 1.0f + 1e-7f;
  EXPECT_TRUE(allclose(a, b));
}

TEST(TensorOps, BitEqual) {
  Tensor a(Shape{3});
  Tensor b(Shape{3});
  EXPECT_TRUE(bit_equal(a, b));
  b[0] = 1e-30f;
  EXPECT_FALSE(bit_equal(a, b));
  EXPECT_FALSE(bit_equal(a, Tensor(Shape{4})));
}

TEST(TensorOps, NormSumAccumulateScale) {
  Tensor a(Shape{3});
  a[0] = 3.0f;
  a[1] = 4.0f;
  EXPECT_DOUBLE_EQ(l2_norm(a), 5.0);
  EXPECT_DOUBLE_EQ(sum(a), 7.0);
  Tensor b(Shape{3});
  b.fill(1.0f);
  accumulate(b, a);
  EXPECT_FLOAT_EQ(b[0], 4.0f);
  EXPECT_FLOAT_EQ(b[2], 1.0f);
  scale(b, 2.0f);
  EXPECT_FLOAT_EQ(b[0], 8.0f);
}

TEST(TensorOps, KaimingVariance) {
  Tensor t(Shape{200, 50});
  Rng rng(11);
  fill_kaiming(t, rng, 50);
  double sq = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    sq += static_cast<double>(t[i]) * t[i];
  }
  EXPECT_NEAR(sq / static_cast<double>(t.numel()), 2.0 / 50.0,
              0.004);  // var = 2 / fan_in
}

TEST(TensorOps, KaimingUniformWithinBoundAndCentred) {
  Tensor t(Shape{200, 50});
  Rng rng(11);
  fill_kaiming(t, rng, 50);
  const float bound = kaiming_bound(50);
  EXPECT_FLOAT_EQ(bound, std::sqrt(6.0f / 50.0f));
  double total = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    // Closed at both ends: the float cast of a draw just below the bound
    // may round up to it.
    EXPECT_GE(t[i], -bound);
    EXPECT_LE(t[i], bound);
    total += t[i];
  }
  // The mean of 10,000 draws has a standard deviation of
  // sqrt(0.04 / 10000) = 0.002; allow five of them.
  EXPECT_NEAR(total / static_cast<double>(t.numel()), 0.0, 0.01);
}

}  // namespace
}  // namespace pooch
