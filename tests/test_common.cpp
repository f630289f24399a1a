#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"

namespace pooch {
namespace {

TEST(Units, ByteConstants) {
  EXPECT_EQ(kKiB, 1024u);
  EXPECT_EQ(kMiB, 1024u * 1024u);
  EXPECT_EQ(kGiB, 1024u * 1024u * 1024u);
  EXPECT_DOUBLE_EQ(bytes_to_gib(kGiB), 1.0);
  EXPECT_DOUBLE_EQ(bytes_to_mib(kMiB * 3), 3.0);
}

TEST(Units, RateConversions) {
  EXPECT_DOUBLE_EQ(gbps_to_bytes_per_sec(16.0), 16e9);
  EXPECT_DOUBLE_EQ(tflops_to_flops(15.7), 15.7e12);
  EXPECT_DOUBLE_EQ(us_to_sec(10.0), 1e-5);
  EXPECT_DOUBLE_EQ(sec_to_ms(0.5), 500.0);
}

TEST(Error, CheckMacroThrows) {
  EXPECT_NO_THROW(POOCH_CHECK(1 + 1 == 2));
  EXPECT_THROW(POOCH_CHECK(false), Error);
  try {
    POOCH_CHECK_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 5.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(99);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, DiscardJumpsToTheSameDraw) {
  for (const std::uint64_t n : {0u, 1u, 2u, 7u, 1000u}) {
    Rng serial(55);
    for (std::uint64_t i = 0; i < n; ++i) serial.next_u64();
    Rng jumped(55);
    jumped.discard(n);
    EXPECT_EQ(jumped.next_u64(), serial.next_u64()) << "draw " << n + 1;
  }
}

TEST(Rng, CounterHashIsStatelessAndKeyed) {
  EXPECT_EQ(counter_hash(1, 5), counter_hash(1, 5));
  EXPECT_NE(counter_hash(1, 5), counter_hash(2, 5));
  EXPECT_NE(counter_hash(1, 5), counter_hash(1, 6));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(counter_hash(42, i));
  EXPECT_EQ(seen.size(), 1000u);  // no collisions in a small window
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2 * kKiB), "2.00 KiB");
  EXPECT_EQ(format_bytes(3 * kMiB + kMiB / 2), "3.50 MiB");
  EXPECT_EQ(format_bytes(50 * kGiB), "50.00 GiB");
}

TEST(Strings, FormatTime) {
  EXPECT_EQ(format_time(2.5), "2.500 s");
  EXPECT_EQ(format_time(0.0123), "12.300 ms");
  EXPECT_EQ(format_time(42e-6), "42.0 us");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

}  // namespace
}  // namespace pooch
