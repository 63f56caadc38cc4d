package herder

// The catch-up fetcher (DESIGN.md §16). Every node has one; it holds at
// most one outstanding request, for ledgers or for an archive file, with one
// timer and one peer. A request unanswered for a ledger interval goes to the
// next peer.
//
// A lagging node only asks for ledgers (catchup.go). A node with an empty
// data dir first fetches a peer's state into its own archive and adopts it,
// then asks for the ledgers past it exactly as a lagging node does:
//
//	discover → ask a peer for its latest checkpoint and tip sequences
//	fetch    → pull the checkpoint, its header, and every bucket it names
//	           that the node lacks, in ≤128 KiB chunks, each chunk
//	           checksummed, each file verified end-to-end before it is
//	           committed (buckets by content address, the rest by archive
//	           framing)
//	adopt    → CatchUp on the now-populated local archive; the trigger
//	           cadence starts
//	replay   → catch-up requests for the ledgers from the checkpoint to the
//	           tip discovery reported, and on
//
// A peer rotated to while fetching is asked to discover again: its
// checkpoint may differ. Fetches are resumable — a half-fetched file
// persists as rel.part and the next request asks for it at its size — and
// the serving side is stateless: each request is an independent pread, so
// serving costs a validator no memory and survives its own restarts.

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"stellar/internal/bucket"
	"stellar/internal/overlay"
	"stellar/internal/simnet"
)

// Catchup state gauge values.
const (
	catchupIdle = iota
	catchupDiscovering
	catchupFetching
	catchupReplaying
	catchupDone
)

// fetcher is the node's catch-up fetcher.
type fetcher struct {
	peerIdx int           // position in the overlay's peer list
	peer    simnet.Addr   // the peer the outstanding request went to
	timer   *simnet.Timer // nil when no request is outstanding
	// The cold start's progress: its phase (catchup_state), the discovered
	// checkpoint and tip, and the state files still to fetch.
	phase   int
	cpSeq   uint32
	cpPath  string
	tip     uint32
	queue   []string
	current string
	// onDone, when set, fires once the cold start reaches the discovered
	// tip (testing hook).
	onDone func(replayed int)
}

// awaiting reports whether a reply from peer answers the outstanding
// request.
func (f *fetcher) awaiting(peer simnet.Addr) bool {
	return f.timer != nil && peer == f.peer
}

// answered retires the outstanding request.
func (f *fetcher) answered() {
	if f.timer != nil {
		f.timer.Cancel()
		f.timer = nil
	}
}

// fetchSend makes p the outstanding request: it goes to the current peer,
// and the timer moves it on to the next one.
func (n *Node) fetchSend(p *overlay.Packet) {
	f := &n.fetch
	f.answered()
	if peers := n.ov.Peers(); len(peers) > 0 {
		f.peer = peers[f.peerIdx%len(peers)]
		n.ov.SendDirect(f.peer, p)
	}
	f.timer = n.net.After(n.addr, n.cfg.LedgerInterval, n.fetchTimeout)
}

// fetchTimeout sends an unanswered request to the next peer.
func (n *Node) fetchTimeout() {
	f := &n.fetch
	f.timer = nil
	f.peerIdx++
	n.ins.catchupRetries.Inc()
	if f.phase == catchupDiscovering || f.phase == catchupFetching {
		n.log.Warn("catchup: peer unresponsive, rotating", "peer", string(f.peer))
		n.catchupDiscover()
		return
	}
	n.maybeRequestCatchup()
}

// StartNetworkCatchup begins cold-start catchup from the overlay's peers.
// The node must have an (empty or stale) archive configured and must not
// be bootstrapped some other way first. onDone, if non-nil, runs once the
// node has adopted a peer's state and replayed to the tip that peer
// reported.
func (n *Node) StartNetworkCatchup(onDone func(replayed int)) error {
	if n.cfg.Archive == nil {
		return fmt.Errorf("herder: network catchup needs an archive directory")
	}
	if len(n.ov.Peers()) == 0 {
		return fmt.Errorf("herder: network catchup needs at least one peer")
	}
	n.fetch.onDone = onDone
	n.catchupDiscover()
	return nil
}

// catchupDiscover asks the current peer for its checkpoint and tip.
func (n *Node) catchupDiscover() {
	f := &n.fetch
	f.phase = catchupDiscovering
	n.ins.catchupState.Set(catchupDiscovering)
	n.fetchSend(&overlay.Packet{Kind: overlay.KindArchiveReq})
	n.log.Info("catchup: discovering", "peer", string(f.peer))
}

// serveArchive answers one archive request: discovery (an empty path) with
// the latest checkpoint and the tip, anything else with one chunk of the
// named file. It is stateless and needs only an archive — a node can serve
// while itself applying ledgers.
func (n *Node) serveArchive(from simnet.Addr, p *overlay.Packet) {
	a := n.cfg.Archive
	resp := &overlay.Packet{Kind: overlay.KindArchiveResp, ArchivePath: p.ArchivePath, ArchiveOff: p.ArchiveOff}
	defer n.ov.SendDirect(from, resp)
	if a == nil {
		resp.ArchiveErr = "no archive"
		return
	}
	if p.ArchivePath != "" {
		var err error
		resp.ArchiveData, resp.ArchiveTotal, resp.ArchiveSum, err = a.ReadFileChunk(p.ArchivePath, p.ArchiveOff, 0)
		if err != nil {
			resp.ArchiveErr = "unavailable"
		}
		return
	}
	seq, err := a.LatestCheckpointSeq()
	if err != nil {
		resp.ArchiveErr = "no checkpoint"
		return
	}
	resp.ArchiveSeq, resp.ArchiveTip = seq, seq
	if n.last != nil {
		resp.ArchiveTip = n.last.LedgerSeq
	}
	resp.ArchivePath, _ = a.CheckpointPath(seq)
}

// onArchiveResp advances the state fetch on the reply to its request. A
// refusal is left to the request's timer, which rotates the peer.
func (n *Node) onArchiveResp(p *overlay.Packet) {
	switch n.fetch.phase {
	case catchupDiscovering:
		n.catchupOnDiscovery(p)
	case catchupFetching:
		n.catchupOnChunk(p)
	}
}

// catchupOnDiscovery starts the fetch plan at the peer's checkpoint file.
func (n *Node) catchupOnDiscovery(p *overlay.Packet) {
	f := &n.fetch
	if p.ArchiveErr != "" || p.ArchivePath == "" {
		n.log.Warn("catchup: peer has no usable checkpoint", "peer", string(f.peer), "err", p.ArchiveErr)
		return
	}
	f.cpSeq = p.ArchiveSeq
	f.tip = p.ArchiveTip
	f.cpPath = p.ArchivePath
	// Phase one: just the checkpoint file. Its contents decide the rest of
	// the plan (bucket hashes), so the queue is rebuilt after it commits.
	f.queue = []string{f.cpPath}
	f.phase = catchupFetching
	n.ins.catchupState.Set(catchupFetching)
	n.log.Info("catchup: plan", "checkpoint", f.cpSeq, "tip", f.tip)
	n.catchupNextFile()
}

// catchupNextFile pops the queue and starts (or resumes) fetching; an
// empty queue moves to adopting the fetched state.
func (n *Node) catchupNextFile() {
	f := &n.fetch
	if len(f.queue) == 0 {
		n.catchupAdopt()
		return
	}
	f.current, f.queue = f.queue[0], f.queue[1:]
	n.catchupRequestChunk()
}

// catchupRequestChunk asks for the current file at the resume offset.
func (n *Node) catchupRequestChunk() {
	f := &n.fetch
	n.fetchSend(&overlay.Packet{
		Kind:        overlay.KindArchiveReq,
		ArchivePath: f.current,
		ArchiveOff:  n.cfg.Archive.PartSize(f.current),
	})
}

// catchupOnChunk verifies and appends one chunk; on file completion it
// commits and advances the plan.
func (n *Node) catchupOnChunk(p *overlay.Packet) {
	f := &n.fetch
	a := n.cfg.Archive
	if p.ArchivePath != f.current {
		return // stale response from an earlier request
	}
	if p.ArchiveErr != "" {
		n.log.Warn("catchup: peer refused file", "path", f.current)
		return
	}
	if sha256.Sum256(p.ArchiveData) != p.ArchiveSum {
		n.ins.catchupRetries.Inc()
		n.catchupRequestChunk() // corrupt in transit; re-request
		return
	}
	if err := a.AppendPart(f.current, p.ArchiveOff, p.ArchiveData); err != nil {
		// Offset mismatch (crossed responses): restart this file cleanly.
		n.log.Warn("catchup: part append failed, restarting file", "path", f.current, "err", err)
		a.DiscardPart(f.current)
		n.ins.catchupRetries.Inc()
		n.catchupRequestChunk()
		return
	}
	n.ins.catchupBytes.Add(float64(len(p.ArchiveData)))
	if got := a.PartSize(f.current); got < p.ArchiveTotal {
		n.catchupRequestChunk()
		return
	}
	if err := a.CommitPart(f.current); err != nil {
		// Whole-file verification failed: the .part was deleted; refetch
		// from zero.
		n.log.Warn("catchup: file failed verification, refetching", "path", f.current, "err", err)
		n.ins.catchupRetries.Inc()
		n.catchupRequestChunk()
		return
	}
	n.ins.catchupFiles.With(fileKindLabel(f.current)).Inc()
	if f.current == f.cpPath {
		if err := n.catchupPlanFromCheckpoint(); err != nil {
			n.log.Error("catchup: fetched checkpoint unusable", "err", err)
			return
		}
	}
	n.catchupNextFile()
}

// catchupPlanFromCheckpoint decodes the fetched checkpoint and queues its
// header and every bucket it names that the node does not already hold.
func (n *Node) catchupPlanFromCheckpoint() error {
	f := &n.fetch
	a := n.cfg.Archive
	cp, err := a.GetCheckpoint(f.cpSeq)
	if err != nil {
		return err
	}
	queue := []string{fmt.Sprintf("headers/%08d.xdr", f.cpSeq)}
	empty := bucket.EmptyBucket().Hash()
	store := a.BucketStore()
	for _, h := range cp.BucketHashes {
		if h == empty || store.Has(h) {
			continue
		}
		queue = append(queue, "buckets/"+h.Hex()+".bucket")
	}
	f.queue = queue
	return nil
}

// catchupAdopt makes the fetched state the node's ledger and starts asking
// for the ledgers past it. Fetched state that does not restore is left to
// the request's timer, which discovers again from the next peer.
func (n *Node) catchupAdopt() {
	f := &n.fetch
	a := n.cfg.Archive
	err := a.WriteLatestPointer(f.cpSeq)
	if err == nil {
		err = n.CatchUp(a)
	}
	if err != nil {
		n.log.Error("catchup: fetched state unusable", "err", err)
		return
	}
	f.phase = catchupReplaying
	n.ins.catchupState.Set(catchupReplaying)
	n.log.Info("catchup: state adopted", "seq", n.last.LedgerSeq, "tip", f.tip)
	f.answered()
	n.Start()
	n.maybeRequestCatchup()
}

// catchupDone ends a cold start: the node stands at the tip discovery
// reported.
func (n *Node) catchupDone() {
	f := &n.fetch
	f.phase = catchupDone
	n.ins.catchupState.Set(catchupDone)
	replayed := int(n.last.LedgerSeq - f.cpSeq)
	n.log.Info("catchup: complete", "seq", n.last.LedgerSeq, "replayed", replayed)
	if f.onDone != nil {
		f.onDone(replayed)
	}
}

// fileKindLabel maps an archive path to its metric label.
func fileKindLabel(rel string) string {
	switch {
	case strings.HasPrefix(rel, "headers/"):
		return "header"
	case strings.HasPrefix(rel, "buckets/"):
		return "bucket"
	case strings.HasPrefix(rel, "checkpoints/"):
		return "checkpoint"
	default:
		return "other"
	}
}
