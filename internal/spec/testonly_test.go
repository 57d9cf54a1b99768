package spec

// Lookups only tests use: Table 2 runs every benchmark in All's order.

// ByName finds a benchmark.
func ByName(name string) (*Benchmark, bool) {
	for _, b := range All() {
		if b.Name == name {
			return b, true
		}
	}
	return nil, false
}
