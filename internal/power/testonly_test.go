package power

// CoreW returns the power currently billed to a core. Only tests read it:
// callers read energy, and the kernel prices time through PriceW.
func (t *Tracker) CoreW(core int) float64 { return t.cores[core].lastW }
