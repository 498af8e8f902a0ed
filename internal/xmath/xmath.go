// Package xmath provides the log-binomial coefficients behind TIM-style
// sample sizing.
package xmath

import "math"

// LogChoose returns ln(C(n, k)) computed via the log-gamma function.
// It returns 0 for k <= 0 or k >= n (C = 1 on the boundary) and panics on
// negative n, which would indicate a logic error upstream.
func LogChoose(n, k int) float64 {
	if n < 0 {
		panic("xmath: LogChoose with negative n")
	}
	if k <= 0 || k >= n {
		return 0
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk1, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk1 - lnk
}
