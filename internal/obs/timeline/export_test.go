package timeline

import (
	"time"

	"streamhist/internal/obs"
)

// TestConfig holds the settings New fixes, for tests to shrink or speed up.
// Zero fields keep New's value; nil Detectors keeps DefaultDetectors and an
// empty non-nil slice disables detection. The finest resolution's step is
// the sampling period.
type TestConfig struct {
	Resolutions []Res
	Detectors   []Detector
	Cooldown    time.Duration
	BundleLimit int
	MaxSeries   int
}

// NewForTest is New with c's settings.
func NewForTest(o *obs.Obs, bundleDir string, c TestConfig) *Timeline {
	if c.Resolutions == nil {
		c.Resolutions = defaultResolutions()
	}
	if c.Detectors == nil {
		c.Detectors = DefaultDetectors()
	}
	t := newTimeline(o, bundleDir, c.Resolutions, c.Detectors)
	if c.Cooldown > 0 {
		t.cooldown = c.Cooldown
	}
	if c.BundleLimit > 0 {
		t.bundleLimit = c.BundleLimit
	}
	if c.MaxSeries > 0 {
		t.maxSeries = c.MaxSeries
	}
	return t
}
