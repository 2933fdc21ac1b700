package failsim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/monitor"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestCompareValidation(t *testing.T) {
	ps := mkPathSet(t, 3, []int{0})
	cfg := Config{K: 1, Trials: 10, Seed: 1}
	if _, err := Compare([]string{"a"}, nil, cfg); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Compare(nil, nil, cfg); err == nil {
		t.Fatal("empty comparison should error")
	}
	if _, err := Compare([]string{""}, []*monitor.PathSet{ps}, cfg); err == nil {
		t.Fatal("empty name should error")
	}
	if _, err := Compare([]string{"a", "a"}, []*monitor.PathSet{ps, ps}, cfg); err == nil {
		t.Fatal("duplicate name should error")
	}
	if _, err := Compare([]string{"a"}, []*monitor.PathSet{ps}, Config{K: 0, Trials: 1}); err == nil {
		t.Fatal("bad config should propagate")
	}
}

func TestCompareBetterPathsWin(t *testing.T) {
	// Placement A: one singleton path per node (perfect localization).
	// Placement B: one path covering everything (pure detection).
	n := 4
	perfect := mkPathSet(t, n, []int{0}, []int{1}, []int{2}, []int{3})
	blurry := mkPathSet(t, n, []int{0, 1, 2, 3})

	c, err := Compare([]string{"perfect", "blurry"},
		[]*monitor.PathSet{perfect, blurry},
		Config{K: 1, Trials: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Best(); got != "perfect" {
		t.Fatalf("Best = %q", got)
	}
	if got := c.SortedByUniqueRate(); !reflect.DeepEqual(got, []string{"perfect", "blurry"}) {
		t.Fatalf("Sorted = %v", got)
	}
	text := c.Render()
	for _, want := range []string{"perfect", "blurry", "unique", "mean-amb"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
	// Both detect every failure (full coverage), but only perfect
	// localizes uniquely.
	if c.Stats[0].UniqueRate() != 1 {
		t.Fatalf("perfect unique rate = %v", c.Stats[0].UniqueRate())
	}
	if c.Stats[1].UniqueRate() != 0 {
		t.Fatalf("blurry unique rate = %v", c.Stats[1].UniqueRate())
	}
}

func TestCompareTieBreaksByAmbiguity(t *testing.T) {
	// Neither placement localizes uniquely, but A has lower ambiguity
	// (two 2-node classes) than B (one 4-node class).
	a := mkPathSet(t, 4, []int{0, 1}, []int{2, 3})
	b := mkPathSet(t, 4, []int{0, 1, 2, 3})
	c, err := Compare([]string{"halves", "all"},
		[]*monitor.PathSet{a, b},
		Config{K: 1, Trials: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Best(); got != "halves" {
		t.Fatalf("Best = %q (stats %+v / %+v)", got, c.Stats[0], c.Stats[1])
	}
}

// End-to-end: the paper's operational claim — GD placement localizes
// better than QoS placement under the same failures.
func TestCompareGDBeatsQoSOperationally(t *testing.T) {
	topo := topology.MustBuild(topology.Tiscali)
	r, err := routing.New(topo.Graph)
	if err != nil {
		t.Fatal(err)
	}
	services := make([]placement.Service, 3)
	for s := range services {
		services[s] = placement.Service{
			Name:    "svc",
			Clients: topo.CandidateClients[3*s : 3*s+3],
		}
	}
	inst, err := placement.NewInstance(r, services, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := placement.NewDistinguishability(1)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := placement.Run(context.Background(), inst, obj, placement.Options{Engine: placement.Eager})
	if err != nil {
		t.Fatal(err)
	}
	qos, err := placement.QoS(inst, obj)
	if err != nil {
		t.Fatal(err)
	}
	gdPaths, err := inst.PathSet(gd.Placement)
	if err != nil {
		t.Fatal(err)
	}
	qosPaths, err := inst.PathSet(qos.Placement)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compare([]string{"GD", "QoS"},
		[]*monitor.PathSet{gdPaths, qosPaths},
		Config{K: 1, Trials: 500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	gdStats, qosStats := c.Stats[0], c.Stats[1]
	if gdStats.UniqueRate() <= qosStats.UniqueRate() {
		t.Fatalf("GD unique rate %v should beat QoS %v",
			gdStats.UniqueRate(), qosStats.UniqueRate())
	}
	if gdStats.DetectionRate() < qosStats.DetectionRate() {
		t.Fatalf("GD detection %v should be at least QoS %v",
			gdStats.DetectionRate(), qosStats.DetectionRate())
	}
}
