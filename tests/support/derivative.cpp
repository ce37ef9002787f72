#include "support/derivative.hpp"

#include <algorithm>
#include <cmath>

namespace rlc::math {

namespace {
double step_for(double x, double rel_step) {
  return rel_step * std::max(std::abs(x), 1e-30);
}
}  // namespace

double central_diff(const std::function<double(double)>& f, double x,
                    double rel_step) {
  const double h = step_for(x, rel_step);
  return (f(x + h) - f(x - h)) / (2.0 * h);
}

double richardson_diff(const std::function<double(double)>& f, double x,
                       double rel_step) {
  const double d1 = central_diff(f, x, rel_step);
  const double d2 = central_diff(f, x, 0.5 * rel_step);
  return (4.0 * d2 - d1) / 3.0;
}

double central_diff2(const std::function<double(double)>& f, double x,
                     double rel_step) {
  const double h = step_for(x, rel_step);
  return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h);
}

}  // namespace rlc::math
