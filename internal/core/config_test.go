package core

import (
	"testing"

	"peerwindow/internal/des"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Config)
	}{
		{"zero top list", func(c *Config) { c.TopListSize = 0 }},
		{"zero probe interval", func(c *Config) { c.ProbeInterval = 0 }},
		{"zero probe timeout", func(c *Config) { c.ProbeTimeout = 0 }},
		{"zero ack timeout", func(c *Config) { c.AckTimeout = 0 }},
		{"zero retries", func(c *Config) { c.RetryAttempts = 0 }},
		{"negative forward delay", func(c *Config) { c.ForwardDelay = -1 }},
		{"zero threshold", func(c *Config) { c.ThresholdBits = 0 }},
		{"zero meter window", func(c *Config) { c.MeterWindow = 0 }},
		{"zero shift interval", func(c *Config) { c.ShiftCheckInterval = 0 }},
		{"max level too deep", func(c *Config) { c.MaxLevel = 128 }},
		{"negative max level", func(c *Config) { c.MaxLevel = -1 }},
		{"zero refresh floor", func(c *Config) { c.RefreshFloor = 0 }},
		{"negative reconcile", func(c *Config) { c.ReconcileDelay = -des.Second }},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		c.f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestEstimateLevel(t *testing.T) {
	cases := []struct {
		name   string
		lT     int
		wT, wX float64
		want   int
	}{
		// §4.3: l_X = ceil(l_T + log2(wT / wX)).
		{"equal budgets keep level", 0, 1000, 1000, 0},
		{"half budget adds a level", 0, 1000, 500, 1},
		{"quarter budget adds two", 0, 1000, 250, 2},
		{"rich node clamps at top's level", 0, 1000, 64000, 0},
		{"non-power ratio rounds up", 0, 1000, 300, 2},
		{"offset from deeper top", 2, 1000, 500, 3},
		{"fresh system adopts top level", 1, 0, 500, 1},
		{"zero budget adopts top level", 0, 1000, 0, 0},
	}
	for _, c := range cases {
		if got := EstimateLevel(c.lT, c.wT, c.wX, 30); got != c.want {
			t.Errorf("%s: EstimateLevel(%d,%g,%g) = %d want %d",
				c.name, c.lT, c.wT, c.wX, got, c.want)
		}
	}
	// Max level clamp.
	if got := EstimateLevel(0, 1e12, 1, 10); got != 10 {
		t.Errorf("clamp: got %d want 10", got)
	}
}

func TestRemoveReasonString(t *testing.T) {
	want := map[RemoveReason]string{
		RemoveLeave:     "leave",
		RemoveStale:     "stale",
		RemoveExpired:   "expired",
		RemoveShift:     "shift",
		RemoveReason(0): "unknown",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q want %q", r, r, s)
		}
	}
}
