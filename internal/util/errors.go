package util

import (
	"fmt"
	"strings"
)

// UnknownNameError reports a lookup of a name that is not in the valid
// set — a workload, configuration, predictor or experiment id. Every
// layer that resolves user-supplied names (core factories, the workload
// catalog, the experiment runner, the sim facade and the HTTP API)
// returns this one type, so error text is formatted consistently
// (always listing the valid names) and front-ends can map it onto a
// protocol status with errors.As instead of matching message text.
type UnknownNameError struct {
	// Kind is the category of name that failed to resolve, e.g.
	// "workload", "configuration", "predictor", "experiment".
	Kind string
	// Name is the name that was looked up.
	Name string
	// Valid lists the accepted names, in a stable documented order.
	Valid []string
}

// UnknownName builds an UnknownNameError.
func UnknownName(kind, name string, valid []string) *UnknownNameError {
	return &UnknownNameError{Kind: kind, Name: name, Valid: valid}
}

// Error implements error: `unknown workload "foo" (valid: a, b, c)`.
func (e *UnknownNameError) Error() string {
	if len(e.Valid) == 0 {
		return fmt.Sprintf("unknown %s %q", e.Kind, e.Name)
	}
	return fmt.Sprintf("unknown %s %q (valid: %s)", e.Kind, e.Name, strings.Join(e.Valid, ", "))
}

// Is lets errors.Is match an UnknownNameError against the kind-level
// sentinels returned by ErrUnknownKind, so packages can export one
// (e.g. experiments.ErrUnknownBenchmark = util.ErrUnknownKind("workload"))
// and callers test for it with errors.Is.
func (e *UnknownNameError) Is(target error) bool {
	k, ok := target.(unknownKind)
	return ok && string(k) == e.Kind
}

// unknownKind is a comparable kind-level sentinel.
type unknownKind string

func (k unknownKind) Error() string { return "unknown " + string(k) }

// ErrUnknownKind returns the sentinel matched (via errors.Is) by every
// UnknownNameError of the given kind.
func ErrUnknownKind(kind string) error { return unknownKind(kind) }
