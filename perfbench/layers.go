package main

import (
	"fmt"
)

// layerReport computes the per-layer metrics over the traced episodes, and
// the tracing overhead against the untraced ones.
func layerReport(wl workload, plain, traced []*episode) (*result, error) {
	_, _, _, all := tally(append(append([]*episode(nil), plain...), traced...))
	r := newResult(wl, append(append([]*episode(nil), plain...), traced...), all)
	nRounds := 0.0
	for _, e := range traced {
		nRounds += float64(e.rounds.attempted() - e.rounds.failed)
	}
	d := deltas(traced)

	// Spans of the rounds phases, grouped by what they are.
	var (
		overhead             = map[string][]float64{} // client self time per suggest / observe
		handler              = map[string][]float64{} // handler duration per suggest / observe
		saves, loads, dels   []float64
		saveBytes            float64
		transport, svc, stor float64 // self time summed over round operations
		roundMs              float64
	)
	for _, e := range traced {
		self := selfTimes(e.spans)
		phaseOf := func(i int) string {
			for e.spans[i].Parent >= 0 {
				i = e.spans[i].Parent
			}
			return e.spans[i].Name
		}
		// opOf names the client operation a span serves.
		opOf := func(i int) string {
			for e.spans[i].Layer != "client" {
				if e.spans[i].Parent < 0 {
					return ""
				}
				i = e.spans[i].Parent
			}
			return e.spans[i].Name
		}
		for i, s := range e.spans {
			op := opOf(i)
			isRound := (op == "suggest" || op == "observe") && phaseOf(i) == "rounds"
			switch s.Layer {
			case "client":
				if isRound {
					overhead[s.Name] = append(overhead[s.Name], ms1(self[i]))
					transport += ms1(self[i])
					roundMs += ms1(s.dur())
				}
			case "handler":
				if isRound {
					handler[s.Name] = append(handler[s.Name], ms1(s.dur()))
					svc += ms1(self[i])
				}
			case "store":
				if isRound {
					stor += ms1(self[i])
				}
				switch s.Name {
				case "save":
					if phaseOf(i) == "rounds" {
						saves = append(saves, ms1(s.dur()))
						saveBytes += float64(s.Bytes)
					}
				case "load":
					loads = append(loads, ms1(s.dur()))
				case "delete":
					dels = append(dels, ms1(s.dur()))
				}
			}
		}
	}
	if nRounds == 0 {
		return nil, fmt.Errorf("no traced rounds")
	}

	r.set("http.suggest_overhead_ms", median(overhead["suggest"]), "ms")
	r.set("http.observe_overhead_ms", median(overhead["observe"]), "ms")
	rounds, suggests, creates, _ := tally(traced)
	for name, xs := range map[string][]float64{
		"client.round_" + tailName + "_ms":   rounds.ms,
		"client.suggest_" + tailName + "_ms": suggests.ms,
		"server.suggest_" + tailName + "_ms": handler["suggest"],
		"server.observe_" + tailName + "_ms": handler["observe"],
	} {
		if err := r.tail(name, xs); err != nil {
			return nil, err
		}
	}
	r.set("server.suggest_p50_ms", median(handler["suggest"]), "ms")
	r.set("server.observe_p50_ms", median(handler["observe"]), "ms")
	var ckptAll []float64
	for _, e := range traced {
		for _, d := range e.checkpointAlls {
			ckptAll = append(ckptAll, ms(d))
		}
	}
	r.set("restart.checkpoint_all_ms", median(ckptAll), "ms")

	// The daemon's own histograms split the handler's self time.
	sugMs, learnMs, ckptMs := d.meanMs(histSuggest), d.meanMs(histLearn), d.meanMs(histCkpt)
	saveMean := mean(saves)
	encodeMs := ckptMs - saveMean
	perRound := func(total float64) float64 { return total / nRounds }
	sugPerRound := sugMs * d.count(histSuggest) / nRounds
	learnPerRound := learnMs * d.count(histLearn) / nRounds
	// Observes checkpoint once each; in churn creates checkpoint too, in
	// their own handlers, which are not part of a round.
	encodePerRound := encodeMs * float64(len(handler["observe"])) / nRounds
	otherPerRound := perRound(svc) - sugPerRound - learnPerRound - encodePerRound
	r.set("session.suggest_ms", sugMs, "ms")
	r.set("session.learn_ms", learnMs, "ms")
	r.set("session.other_ms", otherPerRound, "ms")
	r.set("ckpt.total_ms", ckptMs, "ms")
	r.set("ckpt.total_"+tailName+"_ms", 1e3*d.hists[histCkpt].Quantile(tailQ), "ms")
	r.set("ckpt.encode_ms", encodeMs, "ms")
	r.set("ckpt.bytes_per_obs", d.counters["deepcat_checkpoint_bytes_total"]/float64(len(handler["observe"])), "B")

	if err := r.tail("store.save_"+tailName+"_ms", saves); err != nil {
		return nil, err
	}
	r.set("store.save_p50_ms", median(saves), "ms")
	r.set("store.saves_per_round", float64(len(saves))/nRounds, "count")
	r.set("store.save_kb", saveBytes/float64(len(saves))/1024, "KiB")
	r.set("store.load_ms", mean(loads), "ms")
	r.set("store.delete_ms", meanOrZero(dels), "ms")

	nSuggests := d.count(histSuggest)
	r.set("twinq.candidates_per_suggest", d.counters["deepcat_twinq_candidates_total"]/nSuggests, "count")
	r.set("twinq.reject_ratio", d.counters["deepcat_twinq_rejections_total"]/nSuggests, "ratio")

	var duty, trainings, age, version, backlog, records, donors float64
	for _, e := range traced {
		duty += e.spineStats.LearnerDuty
		age += e.spineAge.Seconds()
		for _, l := range e.spineStats.Lanes {
			trainings += float64(l.Trainings)
			version = max(version, float64(l.Version))
			backlog += float64(l.Backlog)
		}
		records += float64(e.whStats.Records)
		for _, f := range e.whStats.Families {
			donors += float64(f.Donors)
		}
	}
	eps := float64(len(traced))
	r.set("spine.learner_duty", duty/eps, "ratio")
	r.set("spine.trainings_per_s", divOrZero(trainings, age), "1/s")
	r.set("spine.policy_version_max", version, "count")
	r.set("spine.adoptions", d.counters["deepcat_spine_adoptions_total"]/eps, "count")
	r.set("spine.backlog_end", backlog/eps, "count")
	r.set("warehouse.records", records/eps, "count")
	r.set("warehouse.donors", donors/eps, "count")
	warm := 0
	for _, e := range traced {
		warm += e.warm
	}
	r.set("warehouse.warm_start_ratio", divOrZero(float64(warm), float64(creates.attempted())), "ratio")

	var alloc, gc, cpu float64
	var sim []float64
	for _, e := range traced {
		alloc += e.allocBytes
		gc += e.gcCPU
		cpu += e.cpu
		sim = append(sim, e.simMs...)
	}
	r.set("go.alloc_bytes_per_round", alloc/nRounds, "B")
	r.set("go.gc_cpu_frac", divOrZero(gc, cpu), "ratio")
	r.set("go.peak_mem_mb", medianOver(traced, func(e *episode) float64 { return e.peakMem / (1 << 20) }), "MB")
	r.set("sim.eval_ms", median(sim), "ms")

	// Self time per layer, per round, and the ledger: the named stages
	// must explain the measured round within ledgerTolerance.
	r.set("self.transport_ms", perRound(transport), "ms")
	r.set("self.service_ms", perRound(svc), "ms")
	r.set("self.store_ms", perRound(stor), "ms")
	round := perRound(roundMs)
	r.set("ledger.round_ms", round, "ms")
	unexplained, err := accounting(round, map[string]float64{
		"transport":       perRound(transport),
		"session.suggest": sugPerRound,
		"session.learn":   learnPerRound,
		"ckpt.encode":     encodePerRound,
		"store":           perRound(stor),
	}, ledgerTolerance)
	r.set("ledger.unexplained_frac", unexplained, "ratio")
	if err != nil {
		r.res.Correct = false
		r.summary("CHECK FAILED: ledger: " + err.Error())
	}
	tracedRPS, plainRPS := roundsPerSecond(traced), roundsPerSecond(plain)
	r.set("trace.overhead_frac", 1-tracedRPS/plainRPS, "ratio")
	r.summary(fmt.Sprintf("%d untraced and %d traced episodes; %d traced rounds; untraced %.2f rounds/s, traced %.2f rounds/s",
		len(plain), len(traced), int(nRounds), plainRPS, tracedRPS))
	return r.finish(), nil
}

func ms1(ns int64) float64 { return float64(ns) / 1e6 }

func divOrZero(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func meanOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return mean(xs)
}
