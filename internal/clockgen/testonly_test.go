package clockgen

// Locked reports whether the last command has taken effect. Only tests ask:
// the platform reads the live ratio, which lags the command until relock.
func (p *PLL) Locked() bool { return p.Ratio() == p.pending }
