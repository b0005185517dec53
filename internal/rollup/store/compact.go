// Seal, compaction and GC — the archive's write side, all driven from
// Tick on the packet clock.
//
// Seal: a pending hour partition whose end the clock has passed by the
// linger margin is encoded canonically and written through the crash-safe
// persist protocol. A failed seal (full disk) is retried once per hour
// interval — never per drain — and the partition stays pending, so the
// failure costs durability latency, not data, until MaxPending evicts it.
//
// Compaction: once a coarse period (day, week) is closed — clock past its
// end plus linger, every finer partition inside it sealed and (for weeks)
// day-compacted — its fine partitions merge cell-wise in start order into
// one coarse partition. The merge is rollup.Counts.Merge, the exact
// addition the live window itself uses, so compaction is lossless by
// construction and byte-deterministic by the canonical cell order.
// Sources are NOT deleted here; that is GC's job, under retention.
//
// GC: a fine partition is removable once the clock passes its end by the
// tier's retention AND its compacted successor is durable. The watermark
// advances only in whole successor-span steps (so tier coverage hands
// over at aligned boundaries, never splitting a coarse cell), is written
// durably to the manifest BEFORE any file is deleted, and deletion is
// best-effort — orphans below the watermark are invisible to queries and
// reaped at the next Open.

package store

import (
	"fmt"
	"sort"

	"gamelens/internal/rollup"
)

// sealDueLocked writes every pending partition the clock has closed.
// force ignores the once-per-interval retry gate (Final's last chance).
func (s *Store) sealDueLocked(force bool) error {
	if !force && s.clockNs < s.sealRetryNs {
		return nil
	}
	hourNs := s.spansNs[TierHour]
	starts := make([]int64, 0, len(s.pending))
	//gamelens:sorted keys are collected here and sorted just below
	for start := range s.pending {
		starts = append(starts, start)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	sealedAny := false
	for _, start := range starts {
		if start+hourNs+int64(s.cfg.Linger) > s.clockNs {
			break // this and every later partition is still open
		}
		p := &partData{tier: TierHour, startNs: start, cells: sortedCells(s.pending[start].subs)}
		if err := s.writePartition(p); err != nil {
			s.sealFailures++
			s.sealRetryNs = s.clockNs + hourNs
			return fmt.Errorf("store: sealing %s: %w", partName(TierHour, start), err)
		}
		delete(s.pending, start)
		s.sealed++
		s.markSealedBelowLocked(start + hourNs)
		s.pendingDirty = true
		sealedAny = true
	}
	if sealedAny {
		// Shrink the durable tail now: the sealed partitions' cells are
		// on disk twice until this flush lands, and Open's sealed-file-
		// wins reconciliation is what makes that window safe.
		return s.flushPendingLocked()
	}
	return nil
}

// compactLocked folds closed fine periods into their coarse successors,
// day first so a week can pick up days minted in the same Tick.
func (s *Store) compactLocked() error {
	if s.clockNs < s.compactRetryNs {
		return nil
	}
	for coarse := TierDay; coarse < numTiers; coarse++ {
		fine := coarse - 1
		spanNs := s.spansNs[coarse]
		periods := map[int64]bool{}
		//gamelens:sorted keys are collected here and sorted just below
		for start := range s.parts[fine] {
			periods[rollup.FloorDiv(start, spanNs)*spanNs] = true
		}
		starts := make([]int64, 0, len(periods))
		//gamelens:sorted keys are collected here and sorted just below
		for p := range periods {
			starts = append(starts, p)
		}
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		for _, period := range starts {
			if _, done := s.parts[coarse][period]; done {
				continue
			}
			if period+spanNs+int64(s.cfg.Linger) > s.clockNs {
				continue // period still open
			}
			if !s.periodSettledLocked(fine, period, spanNs) {
				continue // a finer stage has not finished; retry next Tick
			}
			if err := s.compactPeriodLocked(fine, coarse, period, spanNs); err != nil {
				s.compactFailures++
				s.compactRetryNs = s.clockNs + s.spansNs[TierHour]
				return err
			}
			s.compactions++
		}
	}
	return nil
}

// periodSettledLocked reports whether every finer stage inside
// [period, period+spanNs) has finished: no hour partition is still
// pending in memory, and — when compacting weeks — every day inside the
// period that has hour-tier data has already been day-compacted.
func (s *Store) periodSettledLocked(fine Tier, period, spanNs int64) bool {
	//gamelens:sorted existence scan; order invisible
	for start := range s.pending {
		if start >= period && start < period+spanNs {
			return false
		}
	}
	if fine == TierDay {
		dayNs := s.spansNs[TierDay]
		//gamelens:sorted existence scan; order invisible
		for start := range s.parts[TierHour] {
			if start < period || start >= period+spanNs {
				continue
			}
			day := rollup.FloorDiv(start, dayNs) * dayNs
			if _, done := s.parts[TierDay][day]; !done {
				return false
			}
		}
	}
	return true
}

// compactPeriodLocked merges the fine partitions of one closed period —
// in partition start order, cell-wise per subscriber — and writes the
// coarse result.
func (s *Store) compactPeriodLocked(fine, coarse Tier, period, spanNs int64) error {
	sources := make([]int64, 0, 8)
	//gamelens:sorted keys are collected here and sorted just below
	for start := range s.parts[fine] {
		if start >= period && start < period+spanNs {
			sources = append(sources, start)
		}
	}
	if len(sources) == 0 {
		return nil // an empty period compacts to nothing
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	runs := make([]slice, 0, len(sources))
	for _, start := range sources {
		runs = append(runs, slice{startNs: start, cells: s.parts[fine][start].cells})
	}
	var cells []cell
	m := newMerger(runs)
	for addr, group, ok := m.next(); ok; addr, group, ok = m.next() {
		cells = append(cells, cell{addr: addr})
		foldInto(&cells[len(cells)-1].counts, group)
	}
	p := &partData{tier: coarse, startNs: period, cells: cells}
	if err := s.writePartition(p); err != nil {
		return fmt.Errorf("store: compacting %s: %w", partName(coarse, period), err)
	}
	return nil
}

// gcLocked advances the per-tier watermarks past expired, successor-
// covered partitions — durably, manifest first — then deletes the files.
func (s *Store) gcLocked() error {
	type sweep struct {
		tier     Tier
		toDelete []int64
	}
	var sweeps []sweep
	changed := false
	oldGC := s.gc
	for fine := TierHour; fine < numTiers; fine++ {
		if s.cfg.Retain[fine] < 0 {
			continue // retained forever
		}
		// The watermark aligns to the successor tier's span (weeks, the
		// top tier, align to themselves: expiry there is final deletion).
		alignNs := s.spansNs[TierWeek]
		if fine < TierWeek {
			alignNs = s.spansNs[fine+1]
		}
		cutoff := s.clockNs - int64(s.cfg.Retain[fine])
		bound := rollup.FloorDiv(cutoff, alignNs) * alignNs
		if s.gc[fine] != watermarkUnset && bound <= s.gc[fine] {
			continue
		}
		starts := make([]int64, 0, 8)
		//gamelens:sorted keys are collected here and sorted just below
		for start := range s.parts[fine] {
			if start < bound {
				starts = append(starts, start)
			}
		}
		if len(starts) == 0 {
			continue // nothing to reclaim; don't churn the manifest
		}
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		// Never advance past a partition whose compacted successor is
		// not durable: clamp the watermark down to that period's start.
		if fine < TierWeek {
			for _, start := range starts {
				period := rollup.FloorDiv(start, alignNs) * alignNs
				if _, ok := s.parts[fine+1][period]; !ok {
					bound = period
					break
				}
			}
		}
		if s.gc[fine] != watermarkUnset && bound <= s.gc[fine] {
			continue
		}
		del := starts[:0]
		for _, start := range starts {
			if start < bound {
				del = append(del, start)
			}
		}
		if len(del) == 0 {
			continue
		}
		s.gc[fine] = bound
		changed = true
		sweeps = append(sweeps, sweep{tier: fine, toDelete: del})
	}
	if !changed {
		return nil
	}
	if err := s.writeManifest(); err != nil {
		s.gc = oldGC // stay honest: nothing below the durable watermark may be deleted
		return fmt.Errorf("store: gc watermark: %w", err)
	}
	for _, sw := range sweeps {
		for _, start := range sw.toDelete {
			if s.cfg.FS.Remove(s.partPath(sw.tier, start)) == nil {
				s.removed++
			}
			// Out of the index either way: below the watermark the file
			// is dead to queries, and Open reaps stragglers.
			delete(s.parts[sw.tier], start)
		}
	}
	return nil
}
