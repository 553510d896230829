#include "search/gp.hpp"

#include <cassert>
#include <cmath>

namespace dco3d {

double GaussianProcess::kernel(const std::vector<double>& a,
                               const std::vector<double>& b) const {
  assert(a.size() == b.size());
  double d2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    d2 += d * d;
  }
  return hyper_.signal_var *
         std::exp(-d2 / (2.0 * hyper_.length_scale * hyper_.length_scale));
}

void GaussianProcess::fit(std::vector<std::vector<double>> x, std::vector<double> y) {
  assert(x.size() == y.size() && !x.empty());
  x_ = std::move(x);
  const std::size_t n = x_.size();

  // Normalize targets.
  y_mean_ = 0.0;
  for (double v : y) y_mean_ += v;
  y_mean_ /= static_cast<double>(n);
  double var = 0.0;
  for (double v : y) var += (v - y_mean_) * (v - y_mean_);
  y_std_ = std::sqrt(var / static_cast<double>(n));
  if (y_std_ < 1e-12) y_std_ = 1.0;

  // K + noise I.
  std::vector<std::vector<double>> k(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      k[i][j] = k[j][i] = kernel(x_[i], x_[j]);
    }
    k[i][i] += hyper_.noise_var + 1e-10;
  }

  // Cholesky K = L L^T.
  l_.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = k[i][j];
      for (std::size_t m = 0; m < j; ++m) s -= l_[i][m] * l_[j][m];
      if (i == j) {
        l_[i][i] = std::sqrt(std::max(s, 1e-12));
      } else {
        l_[i][j] = s / l_[j][j];
      }
    }
  }

  // alpha = K^-1 (y - mean) / std via two triangular solves.
  std::vector<double> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = (y[i] - y_mean_) / y_std_;
    for (std::size_t m = 0; m < i; ++m) s -= l_[i][m] * z[m];
    z[i] = s / l_[i][i];
  }
  alpha_.assign(n, 0.0);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double s = z[i];
    for (std::size_t m = i + 1; m < n; ++m) s -= l_[m][i] * alpha_[m];
    alpha_[i] = s / l_[i][i];
  }
}

GaussianProcess::Prediction GaussianProcess::predict(const std::vector<double>& x) const {
  Prediction p;
  if (!fitted()) {
    p.var = hyper_.signal_var;
    return p;
  }
  const std::size_t n = x_.size();
  std::vector<double> kstar(n);
  for (std::size_t i = 0; i < n; ++i) kstar[i] = kernel(x, x_[i]);

  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean += kstar[i] * alpha_[i];

  // v = L^-1 k*; var = k** - v.v
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = kstar[i];
    for (std::size_t m = 0; m < i; ++m) s -= l_[i][m] * v[m];
    v[i] = s / l_[i][i];
  }
  double vv = 0.0;
  for (double t : v) vv += t * t;

  p.mean = mean * y_std_ + y_mean_;
  p.var = std::max(hyper_.signal_var - vv, 1e-12) * y_std_ * y_std_;
  return p;
}

double expected_improvement(const GaussianProcess::Prediction& p, double best,
                            double xi) {
  const double sigma = std::sqrt(p.var);
  if (sigma < 1e-12) return 0.0;
  const double z = (best - p.mean - xi) / sigma;
  const double phi = std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
  const double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
  return (best - p.mean - xi) * cdf + sigma * phi;
}

}  // namespace dco3d
