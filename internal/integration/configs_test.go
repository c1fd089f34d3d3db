package integration

import "bebop/internal/core"

// pinnedConfig is one configuration the differential, accuracy and
// chaos suites run.
type pinnedConfig struct {
	Name string
	Mk   core.ConfigFactory
}

// pinnedConfigs is the plain pipeline and the full BeBoP EOLE stack, the
// two ends of the per-instruction work spectrum.
func pinnedConfigs() []pinnedConfig {
	return []pinnedConfig{
		{"Baseline_6_60", core.Baseline()},
		{"EOLE_4_60/Medium", core.EOLEBeBoP("Medium", core.MediumConfig())},
	}
}
