package attack

import (
	"strings"
	"testing"

	"plugvolt/internal/core"
	"plugvolt/internal/defense"
)

func TestMatrixRunsEveryCellOnFreshMachines(t *testing.T) {
	newEnv := func() (*defense.Env, error) {
		return newEnvNoT("skylake", 71)
	}
	defenses := []DefenseFactory{
		{Name: "none", Build: func(*defense.Env) (defense.Countermeasure, error) {
			return defense.None{}, nil
		}},
		{Name: "polling", Build: func(env *defense.Env) (defense.Countermeasure, error) {
			g, err := quickGrid(env)
			if err != nil {
				return nil, err
			}
			return defense.NewPolling(g.UnsafeSet(), env.Platform.Spec.BusMHz, core.DefaultGuardConfig())
		}},
	}
	attacks := []AttackFactory{
		{Name: "v0ltpwn", Build: func() Attack { return DefaultV0LTpwn() }},
		{Name: "voltpillager", Build: func() Attack { return DefaultVoltPillager() }},
	}
	results, err := Matrix(newEnv, defenses, attacks)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("cells %d", len(results))
	}
	// Undefended: both succeed. Polling: stops v0ltpwn, not the hardware
	// injector.
	byKey := map[string]*Result{}
	for _, r := range results {
		byKey[r.Attack+"|"+r.Defense] = r
	}
	if !byKey["v0ltpwn|none"].Succeeded || !byKey["voltpillager|none"].Succeeded {
		t.Fatalf("undefended cells failed: %v", results)
	}
	if byKey["v0ltpwn|polling (this work)"].Succeeded {
		t.Fatal("polling lost to v0ltpwn")
	}
	if !byKey["voltpillager|polling (this work)"].Succeeded {
		t.Fatal("polling magically stopped the hardware injector")
	}
	data, err := ResultsJSON(results)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "voltpillager") {
		t.Fatal("JSON missing results")
	}
}

func TestMatrixValidation(t *testing.T) {
	ok := func() (*defense.Env, error) { return newEnvNoT("skylake", 1) }
	df := []DefenseFactory{{Name: "none", Build: func(*defense.Env) (defense.Countermeasure, error) { return defense.None{}, nil }}}
	af := []AttackFactory{{Name: "x", Build: func() Attack { return DefaultV0LTpwn() }}}
	if _, err := Matrix(nil, df, af); err == nil {
		t.Fatal("nil env factory accepted")
	}
	if _, err := Matrix(ok, nil, af); err == nil {
		t.Fatal("no defenses accepted")
	}
	if _, err := Matrix(ok, df, nil); err == nil {
		t.Fatal("no attacks accepted")
	}
}
