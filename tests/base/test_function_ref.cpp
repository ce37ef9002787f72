#include "rlc/base/function_ref.hpp"

#include <gtest/gtest.h>

#include <complex>
#include <cstddef>
#include <functional>
#include <type_traits>

namespace rlc {
namespace {

using cplx = std::complex<double>;
using PointRef = FunctionRef<cplx(cplx)>;
using BatchRef = FunctionRef<void(const double*, const double*, double*,
                                  double*, std::size_t)>;

int free_square(int x) { return x * x; }

TEST(FunctionRef, BindsLambdaFunctorAndFunctionPointer) {
  const FunctionRef<int(int)> from_ptr(free_square);
  EXPECT_EQ(from_ptr(7), 49);

  int captured = 10;
  const auto lam = [&captured](int x) { return x + captured; };
  const FunctionRef<int(int)> from_lambda(lam);
  EXPECT_EQ(from_lambda(5), 15);
  captured = 20;  // non-owning: sees the live capture, not a copy
  EXPECT_EQ(from_lambda(5), 25);

  const std::function<int(int)> fn = [](int x) { return x - 1; };
  const FunctionRef<int(int)> from_std(fn);
  EXPECT_EQ(from_std(3), 2);
}

TEST(FunctionRef, IsTwoWordsAndTriviallyCopyable) {
  // The whole point of the hot-path replacement: no allocation, no
  // type-erasure buffer, trivially passable in registers.
  static_assert(sizeof(PointRef) == 2 * sizeof(void*));
  static_assert(std::is_trivially_copyable_v<PointRef>);
  static_assert(std::is_trivially_copyable_v<BatchRef>);
}

TEST(FunctionRef, PerPointAndBatchOverloadsDisambiguate) {
  // The talbot_invert overload set takes either a per-point evaluator or
  // an SoA batch evaluator; the is_invocable_r constraint must route each
  // callable shape to exactly one overload.
  const auto point = [](cplx s) { return 1.0 / s; };
  const auto batch = [](const double* sr, const double* si, double* fr,
                        double* fi, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const cplx v = 1.0 / cplx{sr[i], si[i]};
      fr[i] = v.real();
      fi[i] = v.imag();
    }
  };
  static_assert(std::is_convertible_v<decltype(point), PointRef>);
  static_assert(!std::is_convertible_v<decltype(point), BatchRef>);
  static_assert(std::is_convertible_v<decltype(batch), BatchRef>);
  static_assert(!std::is_convertible_v<decltype(batch), PointRef>);

  const PointRef p(point);
  EXPECT_EQ(p(cplx{2.0, 0.0}), (cplx{0.5, 0.0}));
  const BatchRef b(batch);
  const double sr = 4.0, si = 0.0;
  double fr = 0.0, fi = 1.0;
  b(&sr, &si, &fr, &fi, 1);
  EXPECT_DOUBLE_EQ(fr, 0.25);
  EXPECT_DOUBLE_EQ(fi, 0.0);
}

TEST(FunctionRef, TemporaryLivesThroughTheCallExpression) {
  // Passing a temporary functor to a function taking FunctionRef is the
  // canonical use; the temporary outlives the full call expression.
  struct Doubler {
    int operator()(int x) const { return 2 * x; }
  };
  const auto invoke = [](FunctionRef<int(int)> f) { return f(21); };
  EXPECT_EQ(invoke(Doubler{}), 42);
}

}  // namespace
}  // namespace rlc
