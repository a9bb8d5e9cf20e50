package service

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sync"
	"testing"

	"deepcat/internal/spine"
)

// TestSpineTrainConcurrentStress runs a family's learner back to back while
// two sibling sessions of that family suggest, observe and adopt every
// published version, and a checkpointer snapshots the sessions and encodes
// the published policy. Under -race it proves the learner's training
// scratch (tapes, lane-major buffers, targets, TD errors) is never shared
// with adoption, suggestion or checkpoint capture. It then checks that a
// published policy is immutable — later passes, which rewrite the
// learner's weights and scratch, leave its encoding byte-identical — and
// that every stored checkpoint still verifies.
func TestSpineTrainConcurrentStress(t *testing.T) {
	const passes, rounds = 12, 10
	sp := spine.New(spine.Options{Seed: 11, LearnBatch: 32})
	defer sp.Close()
	store := NewMemStore()
	m := NewManager(store, 0)
	m.AttachSpine(SpineConfig{Spine: sp, AdoptEvery: 1})
	siblings := []string{"sib-a", "sib-b"}
	for _, id := range siblings {
		createTestSession(t, m, id)
	}
	driveSteps(t, m, "sib-a", 8)
	if err := sp.WaitIngestIdle(context.Background()); err != nil {
		t.Fatal(err)
	}
	s, err := m.Get("sib-a")
	if err != nil {
		t.Fatal(err)
	}
	family := s.sig
	if _, err := sp.TrainFamily(family, 4); err != nil {
		t.Fatal(err)
	}

	encode := func(p *spine.Policy) ([]byte, error) {
		var buf bytes.Buffer
		err := gob.NewEncoder(&buf).Encode(p.Agent)
		return buf.Bytes(), err
	}

	errc := make(chan error, 8)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // learner
		defer wg.Done()
		defer close(done)
		for i := 0; i < passes; i++ {
			if _, err := sp.TrainFamily(family, 16); err != nil {
				errc <- fmt.Errorf("learner pass %d: %w", i, err)
				return
			}
		}
	}()
	for _, id := range siblings {
		wg.Add(1)
		go func(id string) { // sibling session: suggest, observe, adopt
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sug, err := m.Suggest(id, "")
				if err != nil {
					errc <- fmt.Errorf("%s suggest: %w", id, err)
					return
				}
				if _, err := m.Observe(id, ObserveRequest{Step: sug.Step, ExecTime: toyExec(sug.Action)}, ""); err != nil {
					errc <- fmt.Errorf("%s observe: %w", id, err)
					return
				}
			}
		}(id)
	}
	wg.Add(1)
	go func() { // checkpointer: session capture and policy encoding
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := m.CheckpointAll(); err != nil {
				errc <- fmt.Errorf("checkpoint: %w", err)
				return
			}
			if p, ok := sp.Policy(family); ok {
				if _, err := encode(p); err != nil {
					errc <- fmt.Errorf("encode policy v%d: %w", p.Version, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	p, ok := sp.Policy(family)
	if !ok || p.Version < passes {
		t.Fatalf("policy after %d passes: %+v, ok=%v", passes, p, ok)
	}
	before, err := encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.TrainFamily(family, 16); err != nil {
		t.Fatal(err)
	}
	after, err := encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("published policy v%d changed after a later learner pass", p.Version)
	}
	for _, id := range siblings {
		data, err := store.Load(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyCheckpoint(data); err != nil {
			t.Fatalf("%s checkpoint: %v", id, err)
		}
	}
	if info := s.Info(); info.SpineAdoptions == 0 {
		t.Fatalf("sibling never adopted a published policy: %+v", info)
	}
}
