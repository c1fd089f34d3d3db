package core_test

import (
	"strings"
	"testing"

	"bebop/internal/core"
	"bebop/sim"
)

// TestUnknownNameErrorsListValidNames: every unknown name a run can be
// given fails with an error listing the valid names. Workload names are
// resolved by the catalog lookup in RunSpec validation, which sits above
// core — hence the external test package.
func TestUnknownNameErrorsListValidNames(t *testing.T) {
	if _, err := (sim.RunSpec{Workload: "nope"}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "swim") {
		t.Fatalf("unknown benchmark error does not list the suite: %v", err)
	}
	if _, err := core.NewInstPredictor("nope"); err == nil ||
		!strings.Contains(err.Error(), "D-FCM") {
		t.Fatalf("unknown predictor error does not list the predictors: %v", err)
	}
	if _, err := core.NamedFactory("nope", ""); err == nil ||
		!strings.Contains(err.Error(), "eole-bebop") {
		t.Fatalf("unknown config error does not list the configs: %v", err)
	}
	if _, err := core.NamedFactory("eole-bebop", "nope"); err == nil ||
		!strings.Contains(err.Error(), "Small_4p") {
		t.Fatalf("unknown Table III error does not list the configs: %v", err)
	}
}
