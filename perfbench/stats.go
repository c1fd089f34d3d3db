package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported: a p90 needs at least 100 samples, a p50 20.
const minBeyond = 10

// minSamples returns the smallest sample count at which percentile p
// (0 < p < 1) has minBeyond samples beyond it.
func minSamples(p float64) int {
	return int(math.Ceil(minBeyond / (1 - p) * (1 - 1e-9)))
}

// percentile returns the nearest-rank p-quantile of xs and whether it may
// be reported under the minBeyond rule. xs need not be sorted.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-rank-1 >= minBeyond
}

// quartiles returns the first quartile, median and third quartile of xs
// by linear interpolation between closest ranks.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		h := p * float64(len(s)-1)
		lo := int(math.Floor(h))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ledger accounts every timed op of a workload and checks its output: an
// op fails if it errored, was refused, or produced an output whose hash
// differs from the reference recorded for the same input (the first
// repetition, or an independent in-process run).
type ledger struct {
	attempted int
	failed    int
	ref       map[string]string // input id -> reference output hash
	notes     []string          // first few failure reasons, for the log
	// digestIDs, when set, limits the digest to these inputs: those every
	// run checks, whatever its speed.
	digestIDs []string
}

func newLedger() *ledger { return &ledger{ref: map[string]string{}} }

// reference records the expected output of input id, from an untimed run
// (a set-up pass or an independent in-process run), without counting an
// op. A reference that disagrees with an earlier one for the same input
// is a determinism failure and counts as one failed op.
func (l *ledger) reference(id, hash string) {
	if old, ok := l.ref[id]; ok && old != hash {
		l.attempted++
		l.fail(fmt.Sprintf("%s: reference outputs disagree (%.12s vs %.12s)", id, old, hash))
		return
	}
	l.ref[id] = hash
}

// record counts one op on input id. err marks an op that produced no
// output; otherwise hash is compared with the reference for id, and the
// first repetition of an input without one becomes its reference.
func (l *ledger) record(id, hash string, err error) {
	l.attempted++
	switch ref, ok := l.ref[id]; {
	case err != nil:
		l.fail(fmt.Sprintf("%s: %v", id, err))
	case !ok:
		l.ref[id] = hash
	case ref != hash:
		l.fail(fmt.Sprintf("%s: output %.12s differs from reference %.12s", id, hash, ref))
	}
}

func (l *ledger) fail(note string) {
	l.failed++
	if len(l.notes) < 5 {
		l.notes = append(l.notes, note)
	}
}

// failedFrac is the share of attempted ops that failed.
func (l *ledger) failedFrac() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

// digest summarizes every reference output in one hash, independent of
// the order inputs were first seen: equal digests mean equal simulated
// statistics for every input the run checked.
func (l *ledger) digest() string {
	ids := append([]string(nil), l.digestIDs...)
	if ids == nil {
		for id := range l.ref {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s=%s\n", id, l.ref[id])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func hashBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
