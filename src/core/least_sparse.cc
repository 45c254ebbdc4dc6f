#include "core/least_sparse.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <unordered_set>

#include "constraint/spectral_bound.h"
#include "linalg/hutchinson.h"
#include "linalg/parallel.h"
#include "opt/adam.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace least {

namespace {

// Builds the initial CSR pattern: ζ-density random off-diagonal support plus
// candidate edges, Glorot-uniform values.
CsrMatrix InitialPattern(int d, double density,
                         const std::vector<std::pair<int, int>>& candidates,
                         Rng& rng) {
  std::unordered_set<int64_t> seen;
  std::vector<Triplet> triplets;
  auto add = [&](int i, int j) {
    if (i == j) return;
    const int64_t key = static_cast<int64_t>(i) * d + j;
    if (!seen.insert(key).second) return;
    triplets.push_back({i, j, rng.GlorotUniform(d, d)});
  };
  for (const auto& [i, j] : candidates) {
    LEAST_CHECK(i >= 0 && i < d && j >= 0 && j < d);
    add(i, j);
  }
  const long long want =
      static_cast<long long>(density * static_cast<double>(d) * d);
  // Rejection sampling is fine: ζ ≪ 1 in every intended configuration.
  for (long long t = 0; t < want; ++t) add(rng.UniformInt(d), rng.UniformInt(d));
  return CsrMatrix::FromTriplets(d, d, std::move(triplets));
}

// S = W ∘ W on the same pattern (for the Hutchinson h estimate).
CsrMatrix SquaredValues(const CsrMatrix& w) {
  CsrMatrix s = w;
  for (double& v : s.values()) v = v * v;
  return s;
}

}  // namespace

LeastSparseLearner::LeastSparseLearner(const LearnOptions& options)
    : options_(options) {}

SparseLearnResult LeastSparseLearner::Fit(const DataSource& data) const {
  return FitInternal(data, nullptr);
}

SparseLearnResult LeastSparseLearner::ResumeFit(const TrainState& state,
                                                const DataSource& data) const {
  SparseLearnResult result;
  if (!state.sparse) {
    result.status = Status::InvalidArgument(
        "cannot resume the sparse learner from a dense train state");
    return result;
  }
  if (state.sparse_w.rows() != data.num_cols() ||
      state.sparse_w.cols() != data.num_cols()) {
    result.status = Status::InvalidArgument(
        "train state shape does not match the data source");
    return result;
  }
  if (state.outer < 1 || state.inner_steps < 0) {
    result.status = Status::InvalidArgument("corrupt train state indices");
    return result;
  }
  if (state.inner_steps > 0 &&
      (state.adam_m.size() != static_cast<size_t>(state.sparse_w.nnz()) ||
       state.adam_m.size() != state.adam_v.size())) {
    result.status = Status::InvalidArgument(
        "train state Adam moments do not match the stored pattern");
    return result;
  }
  return FitInternal(data, &state);
}

SparseLearnResult LeastSparseLearner::FitInternal(
    const DataSource& data, const TrainState* resume) const {
  SparseLearnResult result;
  const Status prepared = data.Prepare();
  if (!prepared.ok()) {
    result.status = prepared;
    return result;
  }
  const int d = data.num_cols();
  const int n = data.num_rows();
  if (d == 0 || n == 0) {
    result.status = Status::InvalidArgument("empty data source");
    return result;
  }
  const LearnOptions& opt = options_;
  Stopwatch watch;
  Rng rng(opt.seed);

  const int batch =
      opt.batch_size > 0 ? std::min(opt.batch_size, n) : std::min(n, 1000);

  CsrMatrix w;
  double rho = opt.rho_init;
  double eta = opt.eta_init;
  double constraint_value = 0.0;
  double prev_round_constraint = std::numeric_limits<double>::infinity();
  int start_outer = 1;
  double time_offset = 0.0;
  bool resume_mid_round = false;

  if (resume == nullptr) {
    w = InitialPattern(d, opt.init_density, candidate_edges_, rng);
  } else {
    if (!rng.LoadState(resume->rng_state)) {
      result.status = Status::InvalidArgument(
          "train state carries an unparsable RNG state");
      return result;
    }
    w = resume->sparse_w;
    rho = resume->rho;
    eta = resume->eta;
    prev_round_constraint = resume->prev_round_constraint;
    constraint_value = resume->constraint_value;
    start_outer = resume->outer;
    resume_mid_round = resume->inner_steps > 0;
    time_offset = resume->elapsed_seconds;
    result.trace = resume->trace;
    result.inner_iterations = resume->total_inner;
    result.outer_iterations = resume->outer - 1;
  }

  SpectralBoundOptions bound{.k = opt.k, .alpha = opt.alpha};
  SparseBoundWorkspace bound_ws;

  DenseMatrix xt(d, batch);        // batch, transposed: row v = variable v
  DenseMatrix rt(d, batch);        // residual, transposed
  std::vector<int> batch_rows(batch);
  // One scratch for the whole fit: sharded sources group each batch by
  // row-range shard in here, so steady-state gathers allocate nothing.
  GatherScratch gather_scratch;
  std::vector<double> constraint_grad;
  std::vector<double> total_grad;
  std::vector<int64_t> kept;

  bool converged = false;

  // One optimizer hoisted out of the round loop; rounds re-initialize it in
  // place for the current nnz (the pattern only shrinks after Compact, so
  // the moment buffers reach their high-water size in round one).
  Adam adam(0);

  auto stop_requested = [this]() { return stop_ != nullptr && stop_(); };
  auto make_state = [&](int outer, int inner_steps, const Adam* adam,
                        double prev_objective, double last_loss) {
    auto state = CaptureTrainState(
        adam, rho, eta, prev_round_constraint, outer, inner_steps,
        prev_objective, last_loss, constraint_value, result.inner_iterations,
        result.trace, time_offset + watch.Seconds(), rng);
    state->sparse = true;
    state->sparse_w = w;
    return state;
  };
  auto cancelled_result = [&](int outer,
                              std::shared_ptr<const TrainState> state) {
    result.status = Status::Cancelled("stop requested at outer round " +
                                      std::to_string(outer));
    result.train_state = std::move(state);
    result.raw_weights = w;
    w.ThresholdValues(opt.prune_threshold);
    w.Compact(nullptr);
    result.weights = std::move(w);
    result.constraint_value = constraint_value;
    result.seconds = time_offset + watch.Seconds();
    return std::move(result);
  };

  for (int outer = start_outer; outer <= opt.max_outer_iterations; ++outer) {
    const bool resuming_here = resume_mid_round && outer == start_outer;
    if (!resuming_here) {
      if (stop_requested()) {
        return cancelled_result(
            outer, make_state(outer, 0, nullptr,
                              std::numeric_limits<double>::infinity(), 0.0));
      }
      if (checkpoint_ != nullptr && outer > 1 &&
          (outer - 1) % checkpoint_every_ == 0) {
        checkpoint_(*make_state(outer, 0, nullptr,
                                std::numeric_limits<double>::infinity(), 0.0));
      }
    }
    const double lr = std::max(
        opt.learning_rate * std::pow(opt.lr_decay, outer - 1),
        0.05 * opt.learning_rate);
    adam.Reinitialize(static_cast<size_t>(w.nnz()), {.learning_rate = lr});
    double prev_objective = std::numeric_limits<double>::infinity();
    double last_loss = 0.0;
    int inner_done = 0;
    int inner_start = 1;
    if (resuming_here) {
      adam.Restore({resume->adam_m, resume->adam_v, resume->adam_t});
      prev_objective = resume->prev_objective;
      last_loss = resume->last_loss;
      inner_done = resume->inner_steps;
      inner_start = resume->inner_steps + 1;
    }

    for (int inner = inner_start; inner <= opt.max_inner_iterations; ++inner) {
      const int64_t nnz = w.nnz();
      if (nnz == 0) break;  // everything thresholded away: trivially acyclic
      constraint_value =
          SpectralBoundSparse(w, bound, &constraint_grad, &bound_ws);

      // --- Mini-batch residual Rt = (X_B W − X_B)ᵀ, kept transposed. ---
      // An unsharded lazy source materializes the whole dataset here; a
      // sharded one streams only the row-range shards this batch touches,
      // so a dataset larger than its cache budget still fits the run.
      for (int b = 0; b < batch; ++b) batch_rows[b] = rng.UniformInt(n);
      const Status gathered =
          data.GatherTransposed(batch_rows, &xt, &gather_scratch);
      if (!gathered.ok()) {
        // A lazy source lost its backing mid-run (file deleted/mutated):
        // fail the run cleanly with the best weights so far, never crash.
        result.status = gathered;
        result.raw_weights = w;
        w.ThresholdValues(opt.prune_threshold);
        w.Compact(nullptr);
        result.weights = std::move(w);
        result.constraint_value = constraint_value;
        result.seconds = time_offset + watch.Seconds();
        return result;
      }
      // Rt starts at −X_Bᵀ, in one pass (negation is exact).
      std::transform(xt.data().begin(), xt.data().end(), rt.data().begin(),
                     std::negate<>());
      const auto& row_ptr = w.row_ptr();
      const auto& col = w.col_idx();
      const auto& values = w.values();
      const int64_t batch_flops = nnz * batch;
      // O(B·nnz) accumulation, split over batch columns: each output column
      // rt(:, b) is written by exactly one chunk, in the same (i, e) order
      // as the serial loop, so results are bitwise identical with and
      // without an installed executor.
      MaybeParallelForFlops(batch_flops, 0, batch, /*grain=*/-1,
                            [&](int64_t b_lo, int64_t b_hi) {
        for (int i = 0; i < d; ++i) {
          const double* x_row = xt.row(i);
          for (int64_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
            const double wv = values[e];
            if (wv == 0.0) continue;
            double* r_row = rt.row(col[e]);
            for (int64_t b = b_lo; b < b_hi; ++b) r_row[b] += wv * x_row[b];
          }
        }
      });
      const double inv_b = 1.0 / batch;
      double smooth = DeterministicSumSquares(
          rt.data().data(), static_cast<int64_t>(rt.data().size()));
      smooth *= inv_b;

      // --- Pattern-restricted gradient, split over pattern rows (each
      // total_grad[e] belongs to exactly one row i; per-edge dots reduce
      // serially within their chunk, so the partition is pure). The dot of
      // edge (i, j) is ⟨Xt_i, Rt_j⟩. Four edges' dots run in lock-step,
      // across row boundaries, so four independent add chains hide the add
      // latency; each dot still sums its products in ascending b, so every
      // bit equals the one-edge-at-a-time loop's.
      total_grad.resize(nnz);
      const double lagrange = rho * constraint_value + eta;
      MaybeParallelForFlops(batch_flops, 0, d, /*grain=*/-1,
                            [&](int64_t i_lo, int64_t i_hi) {
        constexpr int kLanes = 4;
        const int64_t e_end = row_ptr[i_hi];
        int64_t i = i_lo;  // pattern row of the edge being set up
        for (int64_t e0 = row_ptr[i_lo]; e0 < e_end; e0 += kLanes) {
          // A partial last group repeats its final edge in the spare lanes
          // and keeps only the real lanes' dots.
          const int lanes =
              static_cast<int>(std::min<int64_t>(kLanes, e_end - e0));
          const double* x[kLanes];
          const double* r[kLanes];
          for (int k = 0; k < kLanes; ++k) {
            const int64_t e = e0 + std::min(k, lanes - 1);
            while (row_ptr[i + 1] <= e) ++i;
            x[k] = xt.row(static_cast<int>(i));
            r[k] = rt.row(col[e]);
          }
          double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
          for (int b = 0; b < batch; ++b) {
            d0 += x[0][b] * r[0][b];
            d1 += x[1][b] * r[1][b];
            d2 += x[2][b] * r[2][b];
            d3 += x[3][b] * r[3][b];
          }
          const double dots[kLanes] = {d0, d1, d2, d3};
          for (int k = 0; k < lanes; ++k) {
            const int64_t e = e0 + k;
            const double wv = values[e];
            double g = 2.0 * inv_b * dots[k] + lagrange * constraint_grad[e];
            if (wv != 0.0) g += wv > 0.0 ? opt.lambda1 : -opt.lambda1;
            total_grad[e] = g;
          }
        }
      });
      // L1 term, hoisted out of the parallel loop: a deterministic chunked
      // reduction in storage order — the chunk layout depends only on nnz,
      // so the sum is bit-identical across thread counts.
      const double* vp = values.data();
      const double l1 = DeterministicSum(0, nnz, [vp](int64_t lo, int64_t hi) {
        double s = 0.0;
        for (int64_t i = lo; i < hi; ++i) s += std::fabs(vp[i]);
        return s;
      });
      const double loss_value = smooth + opt.lambda1 * l1;
      const double objective =
          loss_value + 0.5 * rho * constraint_value * constraint_value +
          eta * constraint_value;
      if (!std::isfinite(objective)) {
        result.status = Status::NotConverged(
            "objective diverged (non-finite) at outer round " +
            std::to_string(outer));
        result.raw_weights = w;
        w.ThresholdValues(opt.prune_threshold);
        w.Compact(nullptr);
        result.weights = std::move(w);
        result.seconds = time_offset + watch.Seconds();
        return result;
      }

      adam.Step(w.values(), total_grad);
      if (outer > opt.threshold_warmup_rounds) {
        w.ThresholdValues(opt.filter_threshold);
      }
      last_loss = loss_value;
      ++inner_done;
      if (inner % opt.inner_check_every == 0) {
        const double rel = std::fabs(objective - prev_objective) /
                           std::max(1.0, std::fabs(prev_objective));
        if (rel < opt.inner_rtol) break;
        prev_objective = objective;
        // Polled after the convergence bookkeeping so a snapshot taken here
        // re-enters the loop at inner + 1 with no replayed work.
        if (stop_requested()) {
          return cancelled_result(
              outer, make_state(outer, inner, &adam, prev_objective,
                                last_loss));
        }
      }
    }
    result.inner_iterations += inner_done;
    result.outer_iterations = outer;

    // Physically drop thresholded entries; later rounds shrink with nnz.
    w.Compact(&kept);
    constraint_value = w.nnz() == 0
                           ? 0.0
                           : SpectralBoundSparse(w, bound, nullptr, &bound_ws);

    TracePoint tp;
    tp.outer = outer;
    tp.seconds = time_offset + watch.Seconds();
    tp.constraint_value = constraint_value;
    tp.loss = last_loss;
    tp.nnz = w.nnz();
    if (opt.track_estimated_h && w.nnz() > 0) {
      tp.h_value = EstimateExpmTraceMinusDim(SquaredValues(w));
    }
    result.trace.push_back(tp);
    if (opt.verbose) {
      std::fprintf(stderr,
                   "[least-sp] outer=%d inner=%d constraint=%.3e loss=%.4f "
                   "nnz=%lld t=%.1fs\n",
                   outer, inner_done, constraint_value, last_loss,
                   static_cast<long long>(tp.nnz), tp.seconds);
    }

    if (constraint_value <= opt.tolerance) {
      converged = true;
      break;
    }
    eta += rho * constraint_value;
    if (constraint_value > opt.rho_progress_ratio * prev_round_constraint) {
      rho = std::min(rho * opt.rho_growth, opt.rho_max);
    }
    prev_round_constraint = constraint_value;
  }

  result.raw_weights = w;
  w.ThresholdValues(opt.prune_threshold);
  w.Compact(nullptr);
  result.weights = std::move(w);
  result.constraint_value = constraint_value;
  result.seconds = time_offset + watch.Seconds();
  if (converged) {
    result.status = Status::Ok();
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3e", constraint_value);
    result.status = Status::NotConverged(
        std::string("constraint ") + buf + " above tolerance after " +
        std::to_string(result.outer_iterations) + " outer rounds");
  }
  return result;
}

SparseLearnResult FitLeastSparse(const DenseMatrix& x,
                                 const LearnOptions& options) {
  // Strictly synchronous call, so a non-owning alias of `x` is safe here —
  // the source never outlives this frame.
  OwningDenseDataSource source(
      std::shared_ptr<const DenseMatrix>(std::shared_ptr<const DenseMatrix>(),
                                         &x));
  return LeastSparseLearner(options).Fit(source);
}

}  // namespace least
