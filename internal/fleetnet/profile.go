package fleetnet

import "safexplain/internal/prof"

// Profile relay: every tier keeps a bounded per-site slot store keyed by
// the wire record's site index, merges incoming records with the same
// drift rejection as prof.Report.Merge, and forwards the original record
// bytes upward unchanged — the same sidecar pattern alerts and trace
// hops use. Because per-site profile merging is commutative and
// associative ("keep the N largest" maxima, integer sums, worst-sample
// exemplars), the merged profile at any tier is byte-identical whatever
// order the subtree's records arrive in.

// SubmitProfile feeds one locally produced profile report — the unit
// tier's entry point, typically prof.Profiler.Report() after (or during)
// an operating window. Each site is ingested into the node's own slot
// store and relayed upward as one wire record. Returns the number of
// records accepted locally.
func (n *Node) SubmitProfile(rep prof.Report) int {
	accepted := 0
	for i := range rep.Sites {
		blob, err := prof.AppendSiteRecord(nil, rep.BlockSize, i, rep.Sites[i])
		if err != nil {
			n.cProfDrops.Inc()
			continue
		}
		if n.ingestProfile(i, rep.BlockSize, rep.Sites[i]) {
			accepted++
		}
		n.relay(SubProfile, n.cfg.ID, blob, nil, n.cProfDrops)
	}
	return accepted
}

// applyProfile receives one relayed profile record from a child link:
// merge it into the slot store and forward the original payload upward
// unchanged, so every ancestor tier merges the identical bytes.
func (n *Node) applyProfile(origin uint32, payload []byte) {
	idx, blockSize, site, err := prof.DecodeSiteRecord(payload)
	if err != nil {
		n.cProfDrops.Inc()
		return
	}
	n.ingestProfile(idx, blockSize, site)
	n.relay(SubProfile, origin, payload, nil, n.cProfDrops)
}

// ingestProfile merges one site record into the bounded slot store.
// The first record fixes the block size; records disagreeing with it,
// indexed beyond ProfileCap, or drifting from the slot's frozen
// name/kind/budget are dropped and counted. A budgeted-site record also
// refreshes the live minimum-headroom gauge the node watcher can bind
// pWCET-headroom rules against.
func (n *Node) ingestProfile(idx, blockSize int, site prof.SiteReport) bool {
	n.pmu.Lock()
	ok := n.ingestProfileLocked(idx, blockSize, site)
	n.pmu.Unlock()
	if !ok {
		n.cProfDrops.Inc()
		return false
	}
	n.cProfRecs.Inc()
	return true
}

// ingestProfileLocked does the slot-store merge under pmu.
//
//safexplain:locked pmu
func (n *Node) ingestProfileLocked(idx, blockSize int, site prof.SiteReport) bool {
	if idx >= n.cfg.ProfileCap {
		return false
	}
	if n.profBlock == 0 {
		n.profBlock = blockSize
	}
	if blockSize != n.profBlock {
		return false
	}
	for len(n.profSlots) <= idx {
		n.profSlots = append(n.profSlots, nil)
	}
	if slot := n.profSlots[idx]; slot != nil {
		if err := slot.Merge(site); err != nil {
			return false
		}
	} else {
		// Merge adds into Buckets in place: own them, so later merges
		// never write through to a submitted report.
		s := site
		s.Buckets = append([]uint64(nil), site.Buckets...)
		n.profSlots[idx] = &s
	}
	if site.Budget > 0 {
		n.refreshHeadroomLocked()
	}
	return true
}

// refreshHeadroomLocked recomputes the minimum live headroom across
// budgeted slots into the prof_min_headroom_ratio gauge. Called with pmu
// held; only runs when a budgeted site changed, so the fit cost stays off
// the bulk relay path.
//
//safexplain:locked pmu
func (n *Node) refreshHeadroomLocked() {
	best, ok := 0.0, false
	for _, s := range n.profSlots {
		if s == nil {
			continue
		}
		h, hok := s.Headroom(n.profBlock, n.cfg.ProfileExceedance)
		if !hok {
			continue
		}
		if !ok || h < best {
			best, ok = h, true
		}
	}
	if ok {
		n.gHeadroom.Set(best)
	}
}

// ProfileReport assembles the node's merged subtree profile in canonical
// form: populated slots in site-index order, labelled with the node's
// own identity. ok is false when no profile record has been ingested.
// Because slot merging is order-independent, two nodes that saw the same
// multiset of records — in any interleaving — encode byte-identical
// reports (modulo the label, which is fixed per node).
func (n *Node) ProfileReport() (prof.Report, bool) {
	n.pmu.Lock()
	defer n.pmu.Unlock()
	if n.profBlock == 0 {
		return prof.Report{}, false
	}
	rep := prof.Report{Version: prof.ReportVersion, System: n.Name(), BlockSize: n.profBlock}
	for _, s := range n.profSlots {
		if s == nil {
			continue
		}
		c := *s
		c.Buckets = append([]uint64(nil), s.Buckets...)
		c.Maxima = append([]uint64(nil), s.Maxima...)
		rep.Sites = append(rep.Sites, c)
	}
	return rep, true
}
