package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"

	"memsim/internal/cluster"
)

// ClusterKey is the checkpoint identity of one cluster run: a hash
// over the configuration's canonical JSON, which carries Base whole,
// plus the obs selection JSON omits. A cluster run is deterministic,
// so equal keys mean equal results — the same contract SpecKey gives
// single-system runs.
func ClusterKey(cfg cluster.Config) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		// Config is plain data; Marshal cannot fail on it. Guard anyway
		// so a future field type slip degrades to never-reused keys
		// rather than collisions.
		b = fmt.Appendf(nil, "unmarshalable:%+v", err)
	}
	h := sha256.Sum256(fmt.Appendf(nil, "cluster|%s|obs=%+v", b, cfg.Obs))
	return "c" + hex.EncodeToString(h[:8])
}

// RunClusters resolves cluster specs through the same orchestration
// contract as RunBenches: checkpoint reuse keyed by ClusterKey, the
// batch context, per-run panic recovery, and the retry policy for
// timeout aborts. Specs run one at a time — a cluster run is itself a
// multi-goroutine affair under Parallel, and sequential resolution
// keeps the persistence-boundary order deterministic for crash-point
// exploration. Each completed run is recorded as a single manifest
// entry (the merged Result embeds every member system), so a resume
// reuses a cluster run whole: half a cluster cannot be resumed.
func (r *Runner) RunClusters(cfgs []cluster.Config) ([]cluster.Result, error) {
	ctx := r.ctx()
	results := make([]cluster.Result, len(cfgs))
	for i, cfg := range cfgs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: batch canceled: %w", context.Cause(ctx))
		}
		res, err := r.runCluster(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: cluster %d of %d [%s]: %w", i+1, len(cfgs), ClusterKey(cfg), err)
		}
		results[i] = res
	}
	return results, nil
}

// runCluster resolves one cluster spec: from the checkpoint when
// possible, else by simulating with the retry policy.
func (r *Runner) runCluster(ctx context.Context, cfg cluster.Config) (cluster.Result, error) {
	key := ClusterKey(cfg)
	if r.opt.Checkpoint != nil {
		if res, ok := r.opt.Checkpoint.LookupCluster(key); ok {
			r.reused.Add(1)
			return res, nil
		}
	}
	var errs []error
	for attempt := 1; ; attempt++ {
		res, err := r.runClusterOnce(ctx, cfg)
		if err == nil {
			r.completed.Add(1)
			if r.opt.Checkpoint != nil {
				_ = r.opt.Checkpoint.RecordCluster(key, clusterName(cfg), res)
			}
			return res, nil
		}
		errs = append(errs, err)
		if ctx.Err() != nil || attempt > r.opt.Retries || !Retryable(err) {
			return cluster.Result{}, errors.Join(errs...)
		}
		r.retried.Add(1)
		if !sleepCtx(ctx, retryDelay(r.opt.RetryBackoff, attempt)) {
			return cluster.Result{}, errors.Join(append(errs, context.Cause(ctx))...)
		}
	}
}

// runClusterOnce executes a single attempt under the per-run deadline,
// converting panics into errors like runOnce does.
func (r *Runner) runClusterOnce(ctx context.Context, cfg cluster.Config) (res cluster.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = cluster.Result{}, fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	if d := r.opt.TimeoutPerRun; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	return cluster.Run(ctx, cfg)
}

// clusterName renders the manifest's human-readable tag for a cluster
// entry: the co-running benchmarks joined with '+'.
func clusterName(cfg cluster.Config) string {
	name := "cluster:"
	for i, s := range cfg.Systems {
		if i > 0 {
			name += "+"
		}
		name += s.Bench
	}
	return name
}
