package main

import "testing"

func TestRunSingleExperiment(t *testing.T) {
	// The cheap text-only experiments keep this test fast.
	for _, id := range []string{"f3", "c2", "a4", "F3"} {
		if err := run(id, ""); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("zzz", ""); err == nil {
		t.Error("unknown experiment should fail")
	}
}
