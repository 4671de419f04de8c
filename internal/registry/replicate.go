package registry

import (
	"context"
	"fmt"
	"io"

	"pulphd/internal/hdc"
	"pulphd/internal/model"
)

// This file is the registry's replication surface: a primary exports
// consistent generation-stamped snapshots, a replica installs them
// under the same atomic served pointer every other path uses. Neither
// side needs anything beyond the machinery the registry already has —
// State() cuts are learner-lock consistent, snapshots carry a CRC
// trailer, and an Install is one pointer store.

// ExportServing streams name's complete serving state to w in
// snapshot format (PULPHD03) and returns the generation the cut was
// taken at. The cut is consistent — State() serializes against Learn —
// so the bytes always describe exactly the returned generation. Cold
// models fault in first (their WAL tail folds in during fault-in, so
// the export is never stale). The snapshot is written with walSeq 0:
// the receiver owns no WAL pairing for it.
func (r *Registry) ExportServing(ctx context.Context, name string, w io.Writer) (uint64, error) {
	sv, err := r.ServingCtx(ctx, name)
	if err != nil {
		return 0, err
	}
	st := sv.State()
	if err := model.SaveServingState(w, sv.Config(), st, 0); err != nil {
		return 0, err
	}
	return st.Generation, nil
}

// Install publishes sv under name, replacing any existing model's
// served state — the replica-side apply path. The swap is one atomic
// pointer store: predicts in flight keep whichever generation they
// already resolved, new predicts see the installed one, and nothing
// blocks. The entry's drift monitor survives the swap (feedback is
// process-local and should not reset every sync cycle).
//
// Install requires an ephemeral registry. Replicas do not own
// durability — the primary does — and installing over a persistent
// entry would desynchronize a WAL this path deliberately bypasses.
func (r *Registry) Install(name string, sv *hdc.Serving) error {
	if err := ValidateModelName(name); err != nil {
		return err
	}
	if r.Persistent() {
		return fmt.Errorf("registry: Install requires an ephemeral registry (replicas do not own durability)")
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	e, ok := r.entries[name]
	if !ok {
		e = &entry{name: name}
		r.entries[name] = e
	}
	r.mu.Unlock()
	e.mu.Lock()
	if e.deleted {
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.sv.Store(sv)
	e.generation = sv.Generation()
	e.classes = sv.Classes()
	e.mu.Unlock()
	r.touch(e)
	m := r.m()
	m.RecordOp(name, "install")
	m.RecordModelState(name, sv.Generation(), sv.Classes(), sv.ResidentBytes(), 0)
	r.recordFleet()
	return nil
}
