package cpu

import (
	"testing"

	"plugvolt/internal/models"
)

func topoFor(t *testing.T, model string) *Topology {
	t.Helper()
	spec, err := models.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := p.Topology()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTopologyShapes(t *testing.T) {
	sky := topoFor(t, "skylake") // 4C/4T
	if sky.SMT() != 1 {
		t.Fatalf("skylake SMT %d", sky.SMT())
	}
	kbl := topoFor(t, "kabylaker") // 4C/8T
	if kbl.SMT() != 2 {
		t.Fatalf("kabylaker SMT %d", kbl.SMT())
	}
}
