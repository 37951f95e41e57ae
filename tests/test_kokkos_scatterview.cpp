#include <gtest/gtest.h>

#include <vector>

#include "kokkos/core.hpp"
#include "kokkos/scatterview.hpp"
#include "kokkos/threadpool.hpp"

namespace {

// All three deconflicting strategies must produce identical results for the
// same scatter pattern (§3.2: ScatterView transparently swaps strategies).
class ScatterModes : public ::testing::TestWithParam<kk::ScatterMode> {};

TEST_P(ScatterModes, UnstructuredAccumulationMatchesSerial) {
  const std::size_t n_bins = 64;
  const std::size_t n_items = 50000;

  kk::View2D<double, kk::Device> target("t", n_bins, 3);
  target.fill(0.0);
  kk::ScatterView<double, 2, kk::Device> sv(target, GetParam());
  auto acc = sv.access();

  kk::parallel_for("scatter", kk::RangePolicy<kk::Device>(0, n_items),
                   [=](std::size_t i) {
                     const std::size_t bin = (i * 2654435761u) % n_bins;
                     acc.add(bin, i % 3, 1.0);
                   });
  sv.contribute();

  std::vector<double> expect(n_bins * 3, 0.0);
  for (std::size_t i = 0; i < n_items; ++i)
    expect[((i * 2654435761u) % n_bins) * 3 + i % 3] += 1.0;
  for (std::size_t b = 0; b < n_bins; ++b)
    for (std::size_t d = 0; d < 3; ++d)
      EXPECT_DOUBLE_EQ(target(b, d), expect[b * 3 + d])
          << "bin " << b << " dim " << d;
}

INSTANTIATE_TEST_SUITE_P(AllModes, ScatterModes,
                         ::testing::Values(kk::ScatterMode::Atomic,
                                           kk::ScatterMode::Duplicated,
                                           kk::ScatterMode::Sequential),
                         [](const auto& info) {
                           switch (info.param) {
                             case kk::ScatterMode::Atomic: return "Atomic";
                             case kk::ScatterMode::Duplicated:
                               return "Duplicated";
                             default: return "Sequential";
                           }
                         });

TEST(ScatterView, DefaultModesPerSpace) {
  EXPECT_EQ(kk::default_scatter_mode<kk::Device>(), kk::ScatterMode::Atomic);
  EXPECT_EQ(kk::default_scatter_mode<kk::Host>(), kk::ScatterMode::Sequential);
}

// Sequential's plain adds are kept only where one thread runs the kernel: on
// a threaded Device pool the view resolves to Duplicated, on kk::Host and on
// a one-thread pool it stays Sequential.
TEST(ScatterView, SequentialResolvesToDuplicatedOnThreadedDevice) {
  kk::View1D<double, kk::Device> dtarget("t", 4);
  kk::ScatterView<double, 1, kk::Device> dsv(dtarget,
                                             kk::ScatterMode::Sequential);
  if (kk::ThreadPool::instance().concurrency() > 1)
    EXPECT_EQ(dsv.mode(), kk::ScatterMode::Duplicated);
  else
    EXPECT_EQ(dsv.mode(), kk::ScatterMode::Sequential);

  kk::View1D<double, kk::Host> htarget("h", 4);
  kk::ScatterView<double, 1, kk::Host> hsv(htarget,
                                           kk::ScatterMode::Sequential);
  EXPECT_EQ(hsv.mode(), kk::ScatterMode::Sequential);
}

TEST(ScatterView, DuplicatedReusableAfterContribute) {
  kk::View1D<double, kk::Device> target("t", 8);
  target.fill(0.0);
  kk::ScatterView<double, 1, kk::Device> sv(target,
                                            kk::ScatterMode::Duplicated);
  for (int pass = 0; pass < 3; ++pass) {
    auto acc = sv.access();
    kk::parallel_for("scatter2", kk::RangePolicy<kk::Device>(0, 80),
                     [=](std::size_t i) { acc.add(i % 8, 1.0); });
    sv.contribute();
  }
  for (std::size_t i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(target(i), 30.0);
}

TEST(ScatterView, Rank1Atomic) {
  kk::View1D<double, kk::Device> target("t", 4);
  target.fill(0.0);
  kk::ScatterView<double, 1, kk::Device> sv(target);
  auto acc = sv.access();
  kk::parallel_for("scatter3", kk::RangePolicy<kk::Device>(0, 10000),
                   [=](std::size_t i) { acc.add(i % 4, 0.5); });
  sv.contribute();
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(target(i), 1250.0);
}

}  // namespace
