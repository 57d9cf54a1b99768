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

// Checksums runs every kernel once (one unit) and returns name->checksum.
func Checksums() map[string]uint64 {
	out := map[string]uint64{}
	for _, b := range All() {
		out[b.Name] = b.Kernel(1)
	}
	return out
}
