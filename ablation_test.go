// Ablations over the guard's design choices (EXPERIMENTS.md, "Ablations"):
// the poll period, the guard margin and the safe-offset policy. Each test
// pins the measured campaign outcome at seeds where the design choice
// decides it, so reversing a claim fails the suite.
package plugvolt_test

import (
	"fmt"
	"testing"

	"plugvolt"
	"plugvolt/internal/attack"
	"plugvolt/internal/core"
	"plugvolt/internal/sim"
)

// guardedCampaign characterizes a Sky Lake at seed, deploys the guard with
// the default config adjusted by tune, and runs atk against it.
func guardedCampaign(t *testing.T, seed int64, tune func(*core.GuardConfig, *plugvolt.Grid), atk attack.Attack) (*attack.Result, *core.Guard) {
	t.Helper()
	sys, grid := characterize(t, "skylake", seed, 0)
	cfg := core.DefaultGuardConfig()
	tune(&cfg, grid)
	pol, err := sys.DeployGuardConfig(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := atk.Run(sys.Env(), pol.Name())
	if err != nil {
		t.Fatal(err)
	}
	return res, pol.Guard
}

// TestAblationPollPeriod: V0LTpwn races the guard's poll. At 250 µs and
// faster the guard rewrites the staged offset before the rail slews to
// fault depth; at 1 ms the attacker lands two faults first and succeeds.
func TestAblationPollPeriod(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		for _, tc := range []struct {
			period sim.Duration
			faults int
		}{{50 * sim.Microsecond, 0}, {100 * sim.Microsecond, 0}, {250 * sim.Microsecond, 0}, {sim.Millisecond, 2}} {
			t.Run(fmt.Sprintf("seed%d/%v", seed, tc.period), func(t *testing.T) {
				t.Parallel()
				res, _ := guardedCampaign(t, seed, func(cfg *core.GuardConfig, _ *plugvolt.Grid) {
					cfg.PollPeriod = tc.period
				}, attack.DefaultV0LTpwn())
				if res.FaultsObserved != tc.faults || res.Succeeded != (tc.faults > 0) {
					t.Fatalf("%v poll: %s; want %d faults", tc.period, res, tc.faults)
				}
			})
		}
	}
}

// TestAblationGuardMargin: the measured onset is statistical, so a guard
// that trusts it exactly (0 mV margin) lets a patient Plundervolt farm the
// tail just shallow of it. At seed 1 one fault after 719 signatures
// recovers the RSA key; any margin from 5 mV up holds through all 3020.
func TestAblationGuardMargin(t *testing.T) {
	for _, tc := range []struct{ marginMV, faults, signatures int }{
		{0, 1, 719}, {5, 0, 3020}, {15, 0, 3020}, {30, 0, 3020},
	} {
		t.Run(fmt.Sprintf("margin%dmV", tc.marginMV), func(t *testing.T) {
			t.Parallel()
			res, _ := guardedCampaign(t, 1, func(cfg *core.GuardConfig, _ *plugvolt.Grid) {
				cfg.MarginMV = tc.marginMV
			}, attack.DefaultPlundervolt(1))
			if res.FaultsObserved != tc.faults || res.Attempts != tc.signatures ||
				res.Succeeded != (tc.faults > 0) || res.KeyRecovered != res.Succeeded {
				t.Fatalf("%d mV margin: %s; want %d faults after %d signatures", tc.marginMV, res, tc.faults, tc.signatures)
			}
		})
	}
}

// TestAblationSafeOffsetPolicy: restoring an unsafe core to 0 mV and
// restoring it to the maximal safe state (-45 mV at seed 42, 20 mV of
// headroom) both defeat V0LTpwn; the latter keeps a forced core
// undervolted.
func TestAblationSafeOffsetPolicy(t *testing.T) {
	for _, tc := range []struct {
		name        string
		maximalSafe bool
		wantMV      int
	}{{"restore-zero", false, 0}, {"restore-maximal-safe", true, -45}} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var safeMV int
			res, guard := guardedCampaign(t, 42, func(cfg *core.GuardConfig, g *plugvolt.Grid) {
				if tc.maximalSafe {
					cfg.SafeOffsetMV = g.MaximalSafeOffsetMV(20)
				}
				safeMV = cfg.SafeOffsetMV
			}, attack.DefaultV0LTpwn())
			if safeMV != tc.wantMV || guard.Interventions == 0 || res.Succeeded || res.FaultsObserved != 0 {
				t.Fatalf("restore to %d mV (want %d) after %d interventions: %s; want the guard to intervene and hold",
					safeMV, tc.wantMV, guard.Interventions, res)
			}
		})
	}
}
