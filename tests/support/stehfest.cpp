#include "support/stehfest.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rlc::laplace {

std::vector<double> stehfest_weights(int N) {
  if (N < 2 || N % 2 != 0) {
    throw std::invalid_argument("stehfest_weights: N must be even and >= 2");
  }
  auto factorial = [](int m) {
    double f = 1.0;
    for (int i = 2; i <= m; ++i) f *= i;
    return f;
  };
  std::vector<double> v(N + 1, 0.0);  // 1-based
  const int half = N / 2;
  for (int k = 1; k <= N; ++k) {
    double sum = 0.0;
    const int jmin = (k + 1) / 2;
    const int jmax = std::min(k, half);
    for (int j = jmin; j <= jmax; ++j) {
      const double num = std::pow(static_cast<double>(j), half) * factorial(2 * j);
      const double den = factorial(half - j) * factorial(j) * factorial(j - 1) *
                         factorial(k - j) * factorial(2 * j - k);
      sum += num / den;
    }
    v[k] = ((k + half) % 2 == 0 ? 1.0 : -1.0) * sum;
  }
  return v;
}

namespace {

double stehfest_invert_with_weights(const std::function<double(double)>& F_real,
                                    double t, const std::vector<double>& v) {
  if (!(t > 0.0)) throw std::invalid_argument("stehfest_invert: t must be > 0");
  const int N = static_cast<int>(v.size()) - 1;
  const double ln2_t = std::log(2.0) / t;
  double acc = 0.0;
  for (int k = 1; k <= N; ++k) acc += v[k] * F_real(k * ln2_t);
  return acc * ln2_t;
}

}  // namespace

double stehfest_invert(const std::function<double(double)>& F_real, double t,
                       int N) {
  return stehfest_invert_with_weights(F_real, t, stehfest_weights(N));
}

std::vector<double> stehfest_invert(const std::function<double(double)>& F_real,
                                    const std::vector<double>& times, int N) {
  const auto v = stehfest_weights(N);
  std::vector<double> out;
  out.reserve(times.size());
  for (double t : times) out.push_back(stehfest_invert_with_weights(F_real, t, v));
  return out;
}

}  // namespace rlc::laplace
