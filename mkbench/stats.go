package main

import (
	"fmt"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs computed exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method, including its clamping for tiny samples), so the
// spreads printed here match the ones the acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// tailPercentile implements the reporting rule for timings: the highest
// percentile that still has ten samples beyond it, which for n samples is
// the (n-10)th smallest, at percentile 100*(n-10)/n. Below 20 samples that
// percentile would fall under the median, so the maximum is reported
// instead, as percentile 100.
func tailPercentile(xs []float64) (pct, value float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if n < 20 {
		return 100, s[n-1]
	}
	return 100 * float64(n-10) / float64(n), s[n-11]
}

// failFrac is failed operations over attempted ones; an empty run attempted
// nothing and failed nothing.
func failFrac(failed, attempted int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// validName reports whether name is a legal metric or workload name: it
// starts with a letter or digit and uses only letters, digits, '_', '.' and
// '-', at most 64 of them.
func validName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("name %q: want 1 to 64 characters", name)
	}
	for i, r := range name {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if i == 0 && !alnum {
			return fmt.Errorf("name %q: must start with a letter or digit", name)
		}
		if !alnum && r != '_' && r != '.' && r != '-' {
			return fmt.Errorf("name %q: character %q not in [A-Za-z0-9_.-]", name, r)
		}
	}
	return nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
