package main

import (
	"errors"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		n    int
		want float64
		ok   bool
	}{
		{0.9, 99, 90, false},
		{0.9, 100, 90, true},
		{0.9, 250, 225, true},
		{0.5, 19, 10, false},
		{0.5, 20, 10, true},
		{0.99, 999, 990, false},
		{0.99, 1000, 990, true},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
		if want := tc.n >= minSamples(tc.p); ok != want {
			t.Errorf("minSamples(%v) = %d disagrees with percentile at n=%d", tc.p, minSamples(tc.p), tc.n)
		}
	}
	if minSamples(0.9) != 100 || minSamples(0.5) != 20 {
		t.Errorf("minSamples: p90 %d, p50 %d; want 100, 20", minSamples(0.9), minSamples(0.5))
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestQuartiles(t *testing.T) {
	q1, m, q3 := quartiles([]float64{4, 1, 3, 2, 5})
	if q1 != 2 || m != 3 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v; want 2 3 4", q1, m, q3)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("median = %v; want 2.5", m)
	}
}

func TestLedgerFailureAccounting(t *testing.T) {
	l := newLedger()
	l.record("a", "h1", nil)                    // first repetition: reference
	l.record("a", "h1", nil)                    // matches
	l.record("a", "h2", nil)                    // differs: failed
	l.record("b", "", errors.New("status 503")) // refused: failed
	l.reference("c", "h3")
	l.record("c", "h4", nil) // differs from an independent reference
	l.record("c", "h3", nil)
	if l.attempted != 6 || l.failed != 3 {
		t.Fatalf("attempted %d failed %d; want 6, 3", l.attempted, l.failed)
	}
	if f := l.failedFrac(); f != 0.5 {
		t.Errorf("failedFrac = %v; want 0.5", f)
	}
	l.reference("c", "h5") // disagrees with the first reference
	if l.attempted != 7 || l.failed != 4 {
		t.Errorf("conflicting reference: attempted %d failed %d; want 7, 4", l.attempted, l.failed)
	}
	if (&ledger{}).failedFrac() != 0 {
		t.Error("failedFrac of an empty ledger is not 0")
	}
}

func TestDigestIgnoresFirstSeenOrder(t *testing.T) {
	a, b := newLedger(), newLedger()
	a.record("x", "1", nil)
	a.record("y", "2", nil)
	b.record("y", "2", nil)
	b.record("x", "1", nil)
	if a.digest() != b.digest() {
		t.Error("digest depends on the order inputs were seen")
	}
	b.record("z", "3", nil)
	if a.digest() == b.digest() {
		t.Error("digest ignores an input")
	}
}
