package attack

import (
	"encoding/json"
	"fmt"

	"plugvolt/internal/defense"
)

// EnvFactory builds a fresh environment (platform + kernel + registry) for
// one matrix cell. Each cell gets its own machine so campaigns never share
// crashes, module residue or characterization state.
type EnvFactory func() (*defense.Env, error)

// DefenseFactory builds a countermeasure for a given (fresh) environment;
// defenses that need characterization do it here against the cell's own
// machine.
type DefenseFactory struct {
	Name  string
	Build func(env *defense.Env) (defense.Countermeasure, error)
}

// AttackFactory builds a fresh attack campaign per cell (campaign structs
// carry per-run counters, so cells must not share them).
type AttackFactory struct {
	Name  string
	Build func() Attack
}

// Matrix runs every attack against every defense, each on a fresh machine,
// and returns the results in defense-major order.
func Matrix(newEnv EnvFactory, defenses []DefenseFactory, attacks []AttackFactory) ([]*Result, error) {
	if newEnv == nil {
		return nil, fmt.Errorf("attack: matrix needs an env factory")
	}
	if len(defenses) == 0 || len(attacks) == 0 {
		return nil, fmt.Errorf("attack: matrix needs at least one defense and one attack")
	}
	var out []*Result
	for _, df := range defenses {
		for _, af := range attacks {
			env, err := newEnv()
			if err != nil {
				return nil, fmt.Errorf("attack: cell (%s, %s): env: %w", df.Name, af.Name, err)
			}
			cm, err := df.Build(env)
			if err != nil {
				return nil, fmt.Errorf("attack: cell (%s, %s): defense: %w", df.Name, af.Name, err)
			}
			if err := cm.Install(env); err != nil {
				return nil, fmt.Errorf("attack: cell (%s, %s): install: %w", df.Name, af.Name, err)
			}
			res, err := af.Build().Run(env, cm.Name())
			if err != nil {
				return nil, fmt.Errorf("attack: cell (%s, %s): run: %w", df.Name, af.Name, err)
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// ResultsJSON serializes results for archival (EXPERIMENTS.md appendices,
// external analysis).
func ResultsJSON(results []*Result) ([]byte, error) {
	return json.MarshalIndent(results, "", " ")
}
