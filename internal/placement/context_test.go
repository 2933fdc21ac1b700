package placement

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// ctxInstance builds a small instance shared by the cancellation tests.
func ctxInstance(t *testing.T) (*Instance, Objective) {
	t.Helper()
	g, err := topology.RandomConnected(12, 20, 4242)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.New(g)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(r, []Service{
		{Name: "a", Clients: []graph.NodeID{0, 1}},
		{Name: "b", Clients: []graph.NodeID{2, 3}},
		{Name: "c", Clients: []graph.NodeID{4, 5}},
	}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := NewDistinguishability(1)
	if err != nil {
		t.Fatal(err)
	}
	return inst, obj
}

// TestCtxEnginesMatchPlainEngines: a background context through every
// engine must reproduce the eager output bit-for-bit — the cancellation
// check may not perturb anything.
func TestCtxEnginesMatchPlainEngines(t *testing.T) {
	inst, obj := ctxInstance(t)
	want, err := runWith(inst, obj, Options{Engine: Eager})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(context.Context) (*Result, error)
	}{
		{"greedy", func(ctx context.Context) (*Result, error) { return Run(ctx, inst, obj, Options{Engine: Eager}) }},
		{"lazy", func(ctx context.Context) (*Result, error) { return Run(ctx, inst, obj, Options{}) }},
	} {
		got, err := tc.run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got.Placement.Hosts, want.Placement.Hosts) || got.Value != want.Value {
			t.Errorf("%s: ctx variant diverged: hosts %v value %v, want %v %v",
				tc.name, got.Placement.Hosts, got.Value, want.Placement.Hosts, want.Value)
		}
	}
}

// TestCtxEnginesStopOnCancel: a pre-canceled context must abort every
// engine before it places anything, with an error that errors.Is-matches
// context.Canceled so the serving layer maps it to the right status.
func TestCtxEnginesStopOnCancel(t *testing.T) {
	inst, obj := ctxInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"greedy", func() (*Result, error) { return Run(ctx, inst, obj, Options{Engine: Eager}) }},
		{"lazy", func() (*Result, error) { return Run(ctx, inst, obj, Options{}) }},
	} {
		res, err := tc.run()
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: canceled run returned (%v, %v), want (nil, context.Canceled)", tc.name, res, err)
		}
	}
}

// TestCtxCancelMidRun cancels from the progress hook during the first
// round and checks the engine stops at the next round boundary instead
// of placing every remaining service.
func TestCtxCancelMidRun(t *testing.T) {
	inst, obj := ctxInstance(t)
	for _, engine := range []string{"greedy", "lazy"} {
		ctx, cancel := context.WithCancel(context.Background())
		rounds := 0
		progress := ProgressFunc(func(Round) {
			rounds++
			cancel() // fires during round 0's hook; round 1 must not start
		})
		var err error
		switch engine {
		case "greedy":
			_, err = Run(ctx, inst, obj, Options{Engine: Eager, Progress: progress})
		case "lazy":
			_, err = Run(ctx, inst, obj, Options{Progress: progress})
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", engine, err)
		}
		if rounds != 1 {
			t.Errorf("%s: engine ran %d rounds after cancellation, want 1", engine, rounds)
		}
		cancel()
	}
}
