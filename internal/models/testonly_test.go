package models

import "plugvolt/internal/timing"

// Helpers only tests use: callers name one model through ByName.

// All returns the three evaluated models in paper order.
func All() ([]*Spec, error) {
	sk, err := SkyLake()
	if err != nil {
		return nil, err
	}
	kb, err := KabyLakeR()
	if err != nil {
		return nil, err
	}
	cm, err := CometLake()
	if err != nil {
		return nil, err
	}
	return []*Spec{sk, kb, cm}, nil
}

// worstSlack is the minimum-slack path's analysis at an operating point.
func worstSlack(c *timing.Circuit, freqGHz, voltageV float64) timing.Analysis {
	worst := c.Analyze(c.Paths[0], freqGHz, voltageV)
	for _, p := range c.Paths[1:] {
		if a := c.Analyze(p, freqGHz, voltageV); a.SlackPS < worst.SlackPS {
			worst = a
		}
	}
	return worst
}
