// Package regress implements the paper's Section V-C regression
// predictors: a simple linear regression baseline and the 7th-order
// multiple non-linear regression (the XAPP-style model of Table IV). The
// paper fitted its regression in Matlab and ported it to C++; here the
// least-squares fit is solved directly via ridge-regularized normal
// equations in Go.
package regress

import (
	"errors"
	"fmt"
	"math"

	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/predict"
)

// Order7 is the paper's selected polynomial order: "a 7th order model
// fits well ... models with lower order do not have sufficient
// classification accuracy, and models with higher orders have higher
// performance overheads".
const Order7 = 7

// Model is a polynomial least-squares predictor. Order 1 is the Table IV
// "Linear Regression" row; Order7 with interactions is "Multi Regression".
type Model struct {
	limits       config.Limits
	grid         config.Grid // limits' snap levels, for every decode
	order        int
	interactions bool
	ridge        float64
	// coef[j] holds the term coefficients for output variable j.
	coef  [][]float64
	terms int
	ready bool
}

var _ predict.Trainable = (*Model)(nil)

// NewLinear returns the first-order baseline.
func NewLinear(limits config.Limits) *Model {
	return &Model{limits: limits, grid: config.NewGrid(limits), order: 1, ridge: 1e-6}
}

// NewMulti returns the 7th-order multiple non-linear regression with
// pairwise and triple interaction terms ("higher orders and variable
// coefficients, which demand more multiplications, increasing
// complexity" — this is why its Table IV overhead tops the deep models).
func NewMulti(limits config.Limits) *Model {
	return &Model{limits: limits, grid: config.NewGrid(limits), order: Order7, interactions: true, ridge: 1e-3}
}

// NewWithOrder returns a polynomial model of arbitrary order (the
// learner-complexity ablation sweeps this).
func NewWithOrder(limits config.Limits, order int, interactions bool) *Model {
	if order < 1 {
		order = 1
	}
	return &Model{limits: limits, grid: config.NewGrid(limits), order: order, interactions: interactions, ridge: 1e-4}
}

// Name implements predict.Predictor.
func (m *Model) Name() string {
	if m.order == 1 && !m.interactions {
		return "Linear Regression"
	}
	if m.order == Order7 && m.interactions {
		return "Multi Regression"
	}
	return fmt.Sprintf("Regression(order=%d,inter=%v)", m.order, m.interactions)
}

// TermCount returns the size of the expanded feature basis.
func (m *Model) TermCount() int { return len(m.expand(feature.Vector{})) }

// expand maps a 17-feature vector to the polynomial basis: a constant,
// per-variable powers up to the order, and (for the multi model)
// pairwise and triple products.
func (m *Model) expand(f feature.Vector) []float64 {
	n := feature.NumFeatures
	out := make([]float64, 0, 1+n*m.order)
	out = append(out, 1)
	for i := 0; i < n; i++ {
		p := 1.0
		for d := 1; d <= m.order; d++ {
			p *= f[i]
			out = append(out, p)
		}
	}
	if m.interactions {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				out = append(out, f[i]*f[j])
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for k := j + 1; k < n; k++ {
					out = append(out, f[i]*f[j]*f[k])
				}
			}
		}
	}
	return out
}

// Train implements predict.Trainable by solving the ridge-regularized
// normal equations (X'X + λI) c = X'y once and reusing the factorization
// for all NumVariables outputs.
func (m *Model) Train(samples []predict.Sample) error {
	if len(samples) == 0 {
		return errors.New("regress: no training samples")
	}
	t := len(m.expand(samples[0].Features))
	m.terms = t

	// Accumulate X'X and X'Y.
	xtx := make([]float64, t*t)
	xty := make([][]float64, config.NumVariables)
	for j := range xty {
		xty[j] = make([]float64, t)
	}
	row := make([]float64, t)
	for s := range samples {
		copy(row, m.expand(samples[s].Features))
		for i := 0; i < t; i++ {
			ri := row[i]
			if ri == 0 {
				continue
			}
			base := i * t
			for k := i; k < t; k++ {
				xtx[base+k] += ri * row[k]
			}
			for j := 0; j < config.NumVariables; j++ {
				xty[j][i] += ri * samples[s].Target[j]
			}
		}
	}
	// Mirror the upper triangle and add the ridge.
	for i := 0; i < t; i++ {
		for k := i + 1; k < t; k++ {
			xtx[k*t+i] = xtx[i*t+k]
		}
		xtx[i*t+i] += m.ridge * float64(len(samples))
	}

	chol, err := cholesky(xtx, t)
	if err != nil {
		return fmt.Errorf("regress: %w", err)
	}
	m.coef = make([][]float64, config.NumVariables)
	for j := 0; j < config.NumVariables; j++ {
		m.coef[j] = cholSolve(chol, t, xty[j])
	}
	m.ready = true
	return nil
}

// Predict implements predict.Predictor; the decoded configuration is
// snapped to the training grid like the other learned models.
func (m *Model) Predict(f feature.Vector) config.M {
	var v [config.NumVariables]float64
	if m.ready {
		basis := m.expand(f)
		for j := range v {
			var sum float64
			for i, c := range m.coef[j] {
				sum += c * basis[i]
			}
			v[j] = sum
		}
	}
	return m.grid.Snap(config.FromNormalized(v, m.limits))
}

// cholesky factors a symmetric positive-definite matrix (row-major n×n)
// in place, returning the lower-triangular factor.
func cholesky(a []float64, n int) ([]float64, error) {
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i*n+j]
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("matrix not positive definite at %d (%g)", i, sum)
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	return l, nil
}

// cholSolve solves L L' x = b.
func cholSolve(l []float64, n int, b []float64) []float64 {
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i*n+k] * y[k]
		}
		y[i] = sum / l[i*n+i]
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*n+i] * x[k]
		}
		x[i] = sum / l[i*n+i]
	}
	return x
}
