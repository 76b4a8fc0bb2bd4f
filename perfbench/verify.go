package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hpas"
	hpasclient "hpas/client"
	"hpas/internal/admission"
)

// owner is where a routed job lives: shard index and shard-local id.
type owner struct {
	shard int
	local string
}

// journalOwners reads every shard's journal files and maps each routed
// job to its owner through the router's per-job idempotency key
// ("hpasr-<gid>"), which the shard journals in the job's Create record.
// Every file must hold a finished job; a terminal state is flushed
// before the follower sees "done", but the read retries briefly in
// case a shard is still writing the final record.
func journalOwners(s *stack) (map[string]owner, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		out, err := readOwners(s)
		if err == nil || time.Now().After(deadline) {
			return out, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func readOwners(s *stack) (map[string]owner, error) {
	out := make(map[string]owner)
	for i, sp := range s.shards {
		ents, err := os.ReadDir(sp.dir)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			local, ok := strings.CutSuffix(e.Name(), ".journal")
			if !ok {
				continue
			}
			body, err := os.ReadFile(filepath.Join(sp.dir, e.Name()))
			if err != nil {
				return nil, err
			}
			rj, _, err := hpas.ReplayStreamRecords(bytes.NewReader(body))
			if err != nil {
				return nil, fmt.Errorf("shard %s journal %s: %w", sp.name, e.Name(), err)
			}
			if rj.State != hpas.StreamJobDone {
				return nil, fmt.Errorf("shard %s job %s journaled %q, want done", sp.name, local, rj.State)
			}
			gid, ok := strings.CutPrefix(rj.Spec.IdempotencyKey, "hpasr-")
			if !ok {
				return nil, fmt.Errorf("shard %s job %s has no router key", sp.name, local)
			}
			if prev, dup := out[gid]; dup {
				return nil, fmt.Errorf("routed job %s runs twice: %s/%s and %s/%s",
					gid, s.shards[prev.shard].name, prev.local, sp.name, local)
			}
			out[gid] = owner{shard: i, local: local}
		}
	}
	return out, nil
}

// verifyResult is what the correctness pass measured on the way.
type verifyResult struct {
	routed, direct []replayRec
	checked        int
}

// verify is the run's correctness gate over every job the stack ran:
// exactly one journaled, finished copy per routed job; a routed replay
// and a direct replay from the owning shard, both byte-identical to
// the job's live stream; and no shard or router counter showing a
// deduplicated, failed, lost or gapped job. At most limit jobs (spread
// evenly) are replayed; every job's journal is checked.
func verify(ctx context.Context, s *stack, jobs []*jobRec, limit int, seed int64) (verifyResult, error) {
	var vr verifyResult
	owners, err := journalOwners(s)
	if err != nil {
		return vr, err
	}
	if len(owners) != len(jobs) {
		return vr, fmt.Errorf("shards journaled %d jobs, clients submitted %d", len(owners), len(jobs))
	}
	rc := s.client(seed)
	direct := make([]*hpasclient.Client, len(s.shards))
	for i := range s.shards {
		direct[i] = s.shardClient(i, seed+int64(i)+1)
	}
	step := 1
	if limit > 0 && len(jobs) > limit {
		step = (len(jobs) + limit - 1) / limit
	}
	for k, j := range jobs {
		o, ok := owners[j.gid]
		if !ok {
			return vr, fmt.Errorf("job %s is in no shard journal", j.gid)
		}
		if k%step != 0 {
			continue
		}
		r := replayJob(ctx, rc, j.gid, j.digest)
		if r.err != nil {
			return vr, fmt.Errorf("routed replay: %w", r.err)
		}
		d := replayJob(ctx, direct[o.shard], o.local, j.digest)
		if d.err != nil {
			return vr, fmt.Errorf("direct replay from %s: %w", s.shards[o.shard].name, d.err)
		}
		vr.routed = append(vr.routed, r)
		vr.direct = append(vr.direct, d)
		vr.checked++
	}
	for _, sp := range s.shards {
		st, adm, err := shardMetrics(ctx, s.hc, sp.url)
		if err != nil {
			return vr, err
		}
		switch {
		case st.IdempotentHits != 0:
			return vr, fmt.Errorf("shard %s answered %d submissions by dedupe: client keys were reused", sp.name, st.IdempotentHits)
		case st.JobsFailed != 0 || st.JobsCancelled != 0:
			return vr, fmt.Errorf("shard %s: %d jobs failed, %d cancelled", sp.name, st.JobsFailed, st.JobsCancelled)
		case st.GapsDropped != 0:
			return vr, fmt.Errorf("shard %s dropped %d messages past slow followers", sp.name, st.GapsDropped)
		case st.JournalErrors != 0 || st.JournalDegraded:
			return vr, fmt.Errorf("shard %s journal errors %d (degraded %v)", sp.name, st.JournalErrors, st.JournalDegraded)
		case adm.ShedRate+adm.ShedClient+adm.ShedConcurrency != 0:
			return vr, fmt.Errorf("shard %s shed %d requests", sp.name, adm.ShedRate+adm.ShedClient+adm.ShedConcurrency)
		}
	}
	rs := s.router.Stats()
	if rs.Replays != 0 || rs.JobsLost != 0 || rs.Resubmitted != 0 || rs.ShardsDown != 0 {
		return vr, fmt.Errorf("router: %d replays, %d lost, %d resubmitted, %d shards down",
			rs.Replays, rs.JobsLost, rs.Resubmitted, rs.ShardsDown)
	}
	return vr, nil
}

// shardMetrics reads one shard's GET /v1/metrics.
func shardMetrics(ctx context.Context, hc *http.Client, base string) (hpas.StreamStats, admission.Stats, error) {
	var body struct {
		Service   hpas.StreamStats `json:"service"`
		Admission admission.Stats  `json:"admission"`
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		return body.Service, body.Admission, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return body.Service, body.Admission, fmt.Errorf("metrics %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return body.Service, body.Admission, fmt.Errorf("metrics %s: status %d", base, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return body.Service, body.Admission, fmt.Errorf("metrics %s: %w", base, err)
	}
	return body.Service, body.Admission, nil
}
