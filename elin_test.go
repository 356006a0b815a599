package elin

import (
	"testing"

	"github.com/elin-go/elin/internal/core/counter"
)

// TestFacadeEndToEnd drives the whole stack through the façade only: build
// a history, check it; run an implementation, check the recording; explore
// every interleaving.
func TestFacadeEndToEnd(t *testing.T) {
	// 1. Hand-built history checking.
	h := NewHistory()
	if err := h.Invoke(0, "X", MakeOp("fetchinc")); err != nil {
		t.Fatal(err)
	}
	if err := h.Invoke(1, "X", MakeOp("fetchinc")); err != nil {
		t.Fatal(err)
	}
	if err := h.Respond(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Respond(0, 1); err != nil {
		t.Fatal(err)
	}
	objs := map[string]Object{"X": NewObject(FetchInc{})}
	ok, err := Linearizable(objs, h, Options{})
	if err != nil || !ok {
		t.Fatalf("Linearizable = %v, %v", ok, err)
	}
	weak, err := WeaklyConsistent(objs, h, Options{})
	if err != nil || !weak {
		t.Fatalf("WeaklyConsistent = %v, %v", weak, err)
	}
	mint, ok, err := MinT(NewObject(FetchInc{}), h, Options{})
	if err != nil || !ok || mint != 0 {
		t.Fatalf("MinT = %d, %v, %v", mint, ok, err)
	}

	// 2. Simulation + MinT monitoring.
	var impl Impl = counter.CAS{}
	res, err := Run(RunConfig{
		Impl:     impl,
		Workload: UniformWorkload(2, 3, MakeOp("fetchinc")),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := TrackMinT(NewObject(FetchInc{}), res.History, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.FinalMinT != 0 {
		t.Fatalf("CAS counter MinT = %d", v.FinalMinT)
	}

	// 3. Exhaustive exploration through the façade.
	root, err := NewSystem(impl, UniformWorkload(2, 1, MakeOp("fetchinc")), nil, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	allLin, _, st, err := LinearizableEverywhere(root, 12, ExploreConfig{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !allLin || st.Leaves == 0 {
		t.Fatalf("exploration: lin=%v leaves=%d", allLin, st.Leaves)
	}
}

// TestFacadeScenario drives the declarative entry point through the
// façade: one Scenario value on every engine, one Report schema.
func TestFacadeScenario(t *testing.T) {
	s := Scenario{
		Impl:     "cas-counter",
		Workload: "uniform:inc",
		Procs:    2,
		Ops:      2,
		Seed:     1,
		Budget:   ScenarioBudget{Depth: 22},
	}
	for _, engine := range []string{"explore", "live", "serve", "sim"} {
		rep, err := RunScenario(engine, s)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if rep.Verdict != "ok" {
			t.Errorf("%s verdict = %s (%s)", engine, rep.Verdict, rep.Detail)
		}
	}
	rep, err := RunScenario("explore", Scenario{
		Impl:     "reg-consensus",
		Procs:    2,
		Ops:      1,
		Analysis: "valency",
		Budget:   ScenarioBudget{Depth: 14},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valency == nil || rep.Verdict != "violation" {
		t.Fatalf("valency scenario: verdict=%s valency=%+v", rep.Verdict, rep.Valency)
	}
	if _, err := RunScenario("nosuch", s); err == nil {
		t.Error("unknown engine accepted")
	}
}
