// Package qmodel provides closed-form queueing results used to validate
// the discrete-event substrate: if the simulator disagrees with M/M/1,
// M/D/1, M/M/c, or M/M/1-PS beyond sampling error, the execution engine is
// wrong in a way example-based tests cannot localize. The cloud package's
// validation tests and `cloudsched validate` check against these formulas.
//
// Conventions: lambda is the arrival rate, mu the per-server service rate,
// c the server count; all results are in the same time unit as 1/lambda.
package qmodel

import (
	"fmt"
	"math"
)

// Rho returns the offered utilization λ/(c·μ).
func Rho(lambda, mu float64, c int) float64 {
	return lambda / (float64(c) * mu)
}

// validate rejects non-ergodic or degenerate parameters.
func validate(lambda, mu float64, c int) error {
	if lambda <= 0 || mu <= 0 {
		return fmt.Errorf("qmodel: rates must be positive (λ=%v, μ=%v)", lambda, mu)
	}
	if c < 1 {
		return fmt.Errorf("qmodel: need at least one server, got %d", c)
	}
	if Rho(lambda, mu, c) >= 1 {
		return fmt.Errorf("qmodel: unstable system (ρ=%v ≥ 1)", Rho(lambda, mu, c))
	}
	return nil
}

// MM1WaitQueue returns the mean time in queue Wq = ρ/(μ−λ) for M/M/1.
func MM1WaitQueue(lambda, mu float64) (float64, error) {
	if err := validate(lambda, mu, 1); err != nil {
		return 0, err
	}
	rho := lambda / mu
	return rho / (mu - lambda), nil
}

// MM1Response returns the mean time in system W = 1/(μ−λ) for M/M/1.
// The same value holds for M/M/1 under processor sharing (M/M/1-PS),
// which is what validates the time-shared cloudlet scheduler.
func MM1Response(lambda, mu float64) (float64, error) {
	if err := validate(lambda, mu, 1); err != nil {
		return 0, err
	}
	return 1 / (mu - lambda), nil
}

// MD1WaitQueue returns the mean time in queue Wq = ρ/(2μ(1−ρ)) for M/D/1
// (deterministic service) — exactly half the M/M/1 wait.
func MD1WaitQueue(lambda, mu float64) (float64, error) {
	if err := validate(lambda, mu, 1); err != nil {
		return 0, err
	}
	rho := lambda / mu
	return rho / (2 * mu * (1 - rho)), nil
}

// ErlangC returns the probability an arrival must queue in M/M/c
// (the Erlang-C formula).
func ErlangC(lambda, mu float64, c int) (float64, error) {
	if err := validate(lambda, mu, c); err != nil {
		return 0, err
	}
	a := lambda / mu // offered load in Erlangs
	rho := Rho(lambda, mu, c)

	// Compute via the numerically stable iterative form of Erlang B, then
	// convert: C = B / (1 − ρ(1 − B)).
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b / (1 - rho*(1-b)), nil
}

// MMcWaitQueue returns the mean time in queue for M/M/c:
// Wq = C(c, a) / (c·μ − λ).
func MMcWaitQueue(lambda, mu float64, c int) (float64, error) {
	pc, err := ErlangC(lambda, mu, c)
	if err != nil {
		return 0, err
	}
	return pc / (float64(c)*mu - lambda), nil
}

// RelativeError returns |observed−expected|/expected, guarding zero.
func RelativeError(observed, expected float64) float64 {
	//schedlint:ignore floateq exact-zero guard against division by zero on a caller-supplied expectation, not a computed sum
	if expected == 0 {
		return math.Abs(observed)
	}
	return math.Abs(observed-expected) / math.Abs(expected)
}
