package herder

// Cold-start catchup over the network (DESIGN.md §16). A node with an
// empty data dir cannot use CatchUp/RestoreFromArchive — it has no
// archive. Instead it replicates a peer's archive into its own, file by
// file, then restores from the local copy exactly as a warm restart
// would:
//
//	discover   → ask a peer for its latest checkpoint + tip sequences
//	fetch      → pull the checkpoint, its header, every bucket it names,
//	             and the header+txset of every ledger up to the tip, in
//	             ≤128 KiB chunks, each chunk checksummed, each file
//	             verified end-to-end before it is committed (buckets by
//	             content address, the rest by archive framing)
//	restore    → RestoreFromArchive on the now-populated local archive
//	rejoin     → a point-to-point CatchupReq covers ledgers the network
//	             closed while we fetched; then the trigger cadence starts
//
// Fetches are resumable: a half-fetched file persists as rel.part and the
// next attempt requests at its size. The serving side is stateless — each
// request is an independent pread — so serving catchup costs a validator
// no memory and survives its own restarts mid-serve.

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
	catchupRestoring
	catchupDone
)

// catchupMaxRetries bounds resends of one request before the fetcher
// rotates to another peer and restarts discovery.
const catchupMaxRetries = 8

// netCatchup is the fetcher's state machine; nil when no network catchup
// is running.
type netCatchup struct {
	peerIdx int // index into the overlay peer list
	peer    simnet.Addr
	state   int
	cpSeq   uint32
	cpPath  string
	tip     uint32
	queue   []string // archive-relative paths still to fetch
	current string
	retries int
	timer   *simnet.Timer
	// OnDone, when set, fires once after the node rejoins (testing hook).
	onDone func(replayed int)
}

// NetworkCatchupActive reports whether a cold-start network catchup is
// still in progress (CatchingUp, in admit.go, is the broader "behind the
// network" predicate the horizon layer serves 503s from).
func (n *Node) NetworkCatchupActive() bool {
	return n.catchup != nil && n.catchup.state != catchupDone
}

// StartNetworkCatchup begins cold-start catchup from the overlay's peers.
// The node must have an (empty or stale) archive configured and must not
// be bootstrapped some other way first. onDone, if non-nil, runs after the
// node has restored, replayed, and rejoined.
func (n *Node) StartNetworkCatchup(onDone func(replayed int)) error {
	if n.cfg.Archive == nil {
		return fmt.Errorf("herder: network catchup needs an archive directory")
	}
	if len(n.ov.Peers()) == 0 {
		return fmt.Errorf("herder: network catchup needs at least one peer")
	}
	n.catchup = &netCatchup{onDone: onDone}
	n.catchupDiscover()
	return nil
}

// catchupDiscover (re)sends a discovery request to the current peer.
func (n *Node) catchupDiscover() {
	c := n.catchup
	peers := n.ov.Peers()
	c.peer = peers[c.peerIdx%len(peers)]
	c.state = catchupDiscovering
	n.ins.catchupState.Set(catchupDiscovering)
	n.log.Info("catchup: discovering", "peer", string(c.peer))
	n.catchupSend(&overlay.Packet{Kind: overlay.KindArchiveReq})
}

// catchupSend transmits one request and arms the retry timer.
func (n *Node) catchupSend(p *overlay.Packet) {
	c := n.catchup
	if c.timer != nil {
		c.timer.Cancel()
	}
	n.ov.SendDirect(c.peer, p)
	c.timer = n.net.After(n.addr, n.cfg.LedgerInterval, n.catchupTimeout)
}

// catchupTimeout re-sends the outstanding request; too many in a row
// rotates to the next peer and restarts discovery (partial fetches are
// kept — .part files resume wherever they stopped).
func (n *Node) catchupTimeout() {
	c := n.catchup
	if c == nil || c.state == catchupDone {
		return
	}
	c.retries++
	n.ins.catchupRetries.Inc()
	if c.retries > catchupMaxRetries {
		c.retries = 0
		c.peerIdx++
		n.log.Warn("catchup: peer unresponsive, rotating", "peer", string(c.peer))
		n.catchupDiscover()
		return
	}
	switch c.state {
	case catchupDiscovering:
		n.catchupSend(&overlay.Packet{Kind: overlay.KindArchiveReq})
	case catchupFetching:
		n.catchupRequestChunk()
	}
}

// serveArchive answers one archive catchup request. It is stateless and
// needs only an archive — a node can serve while itself applying ledgers.
func (n *Node) serveArchive(from simnet.Addr, p *overlay.Packet) {
	a := n.cfg.Archive
	resp := &overlay.Packet{Kind: overlay.KindArchiveResp, ArchivePath: p.ArchivePath, ArchiveOff: p.ArchiveOff}
	if a == nil {
		resp.ArchiveErr = "no archive"
		n.ov.SendDirect(from, resp)
		return
	}
	if p.ArchivePath == "" { // discovery
		seq, err := a.LatestCheckpointSeq()
		if err != nil {
			resp.ArchiveErr = "no checkpoint"
			n.ov.SendDirect(from, resp)
			return
		}
		resp.ArchiveSeq = seq
		resp.ArchiveTip = seq
		if n.last != nil {
			resp.ArchiveTip = n.last.LedgerSeq
		}
		if rel, ok := a.CheckpointPath(seq); ok {
			resp.ArchivePath = rel
		}
		n.ov.SendDirect(from, resp)
		return
	}
	data, total, sum, err := a.ReadFileChunk(p.ArchivePath, p.ArchiveOff, 0)
	if err != nil {
		resp.ArchiveErr = "unavailable"
		n.ov.SendDirect(from, resp)
		return
	}
	resp.ArchiveData = data
	resp.ArchiveTotal = total
	resp.ArchiveSum = sum
	n.ov.SendDirect(from, resp)
}

// onArchiveResp advances the fetcher on one response.
func (n *Node) onArchiveResp(from simnet.Addr, p *overlay.Packet) {
	c := n.catchup
	if c == nil || c.state == catchupDone || from != c.peer {
		return
	}
	switch c.state {
	case catchupDiscovering:
		n.catchupOnDiscovery(p)
	case catchupFetching:
		n.catchupOnChunk(p)
	}
}

// catchupOnDiscovery builds the fetch plan from the peer's checkpoint.
func (n *Node) catchupOnDiscovery(p *overlay.Packet) {
	c := n.catchup
	if p.ArchiveErr != "" || p.ArchivePath == "" {
		n.log.Warn("catchup: peer has no usable checkpoint", "peer", string(c.peer), "err", p.ArchiveErr)
		c.retries = catchupMaxRetries + 1 // force rotation on the timer
		return
	}
	c.cpSeq = p.ArchiveSeq
	c.tip = p.ArchiveTip
	c.cpPath = p.ArchivePath
	// Phase one: just the checkpoint file. Its contents decide the rest of
	// the plan (bucket hashes), so the queue is rebuilt after it commits.
	c.queue = []string{c.cpPath}
	c.state = catchupFetching
	n.ins.catchupState.Set(catchupFetching)
	n.log.Info("catchup: plan", "checkpoint", c.cpSeq, "tip", c.tip)
	n.catchupNextFile()
}

// catchupNextFile pops the queue and starts (or resumes) fetching; an
// empty queue moves to restore.
func (n *Node) catchupNextFile() {
	c := n.catchup
	for len(c.queue) > 0 {
		c.current = c.queue[0]
		c.queue = c.queue[1:]
		c.retries = 0
		n.catchupRequestChunk()
		return
	}
	n.catchupRestore()
}

// catchupRequestChunk asks for the current file at the resume offset.
func (n *Node) catchupRequestChunk() {
	c := n.catchup
	n.catchupSend(&overlay.Packet{
		Kind:        overlay.KindArchiveReq,
		ArchivePath: c.current,
		ArchiveOff:  n.cfg.Archive.PartSize(c.current),
	})
}

// catchupOnChunk verifies and appends one chunk; on file completion it
// commits and advances the plan.
func (n *Node) catchupOnChunk(p *overlay.Packet) {
	c := n.catchup
	a := n.cfg.Archive
	if p.ArchivePath != c.current {
		return // stale response from an earlier request
	}
	if p.ArchiveErr != "" {
		n.log.Warn("catchup: peer refused file", "path", c.current)
		c.retries = catchupMaxRetries + 1
		return
	}
	if sha256.Sum256(p.ArchiveData) != p.ArchiveSum {
		n.ins.catchupRetries.Inc()
		n.catchupRequestChunk() // corrupt in transit; re-request
		return
	}
	if err := a.AppendPart(c.current, p.ArchiveOff, p.ArchiveData); err != nil {
		// Offset mismatch (crossed responses): restart this file cleanly.
		n.log.Warn("catchup: part append failed, restarting file", "path", c.current, "err", err)
		a.DiscardPart(c.current)
		n.ins.catchupRetries.Inc()
		n.catchupRequestChunk()
		return
	}
	n.ins.catchupBytes.Add(float64(len(p.ArchiveData)))
	if got := a.PartSize(c.current); got < p.ArchiveTotal {
		n.catchupRequestChunk()
		return
	}
	if err := a.CommitPart(c.current); err != nil {
		// Whole-file verification failed: the .part was deleted; refetch
		// from zero.
		n.log.Warn("catchup: file failed verification, refetching", "path", c.current, "err", err)
		n.ins.catchupRetries.Inc()
		n.catchupRequestChunk()
		return
	}
	n.ins.catchupFiles.With(fileKindLabel(c.current)).Inc()
	if c.current == c.cpPath {
		if err := n.catchupPlanFromCheckpoint(); err != nil {
			n.log.Error("catchup: fetched checkpoint unusable", "err", err)
			c.retries = catchupMaxRetries + 1
			return
		}
	}
	n.catchupNextFile()
}

// catchupPlanFromCheckpoint decodes the fetched checkpoint and queues the
// header, every bucket the node does not already hold, and the
// header+txset of each ledger from the checkpoint to the peer's tip.
func (n *Node) catchupPlanFromCheckpoint() error {
	c := n.catchup
	a := n.cfg.Archive
	cp, err := a.GetCheckpoint(c.cpSeq)
	if err != nil {
		return err
	}
	var queue []string
	queue = append(queue, fmt.Sprintf("headers/%08d.xdr", c.cpSeq))
	empty := bucket.EmptyBucket().Hash()
	store := a.BucketStore()
	for _, h := range cp.BucketHashes {
		if h == empty || store.Has(h) {
			continue
		}
		queue = append(queue, "buckets/"+h.Hex()+".bucket")
	}
	for seq := c.cpSeq + 1; seq <= c.tip; seq++ {
		queue = append(queue, fmt.Sprintf("headers/%08d.xdr", seq))
		queue = append(queue, fmt.Sprintf("txsets/%08d.xdr", seq))
	}
	c.queue = queue
	return nil
}

// catchupRestore promotes the fetched archive into live state and rejoins
// consensus.
func (n *Node) catchupRestore() {
	c := n.catchup
	a := n.cfg.Archive
	c.state = catchupRestoring
	n.ins.catchupState.Set(catchupRestoring)
	if c.timer != nil {
		c.timer.Cancel()
		c.timer = nil
	}
	if err := a.WriteLatestPointer(c.cpSeq); err != nil {
		n.log.Error("catchup: latest pointer", "err", err)
		return
	}
	replayed, err := n.RestoreFromArchive(a)
	if err != nil {
		n.log.Error("catchup: restore failed", "err", err)
		n.ins.catchupState.Set(catchupIdle)
		return
	}
	n.ins.catchupReplayed.Add(float64(replayed))
	c.state = catchupDone
	n.ins.catchupState.Set(catchupDone)
	n.log.Info("catchup: complete", "seq", n.last.LedgerSeq, "replayed", replayed)
	// The network kept closing ledgers while we fetched; the live window
	// protocol covers the gap, then the cadence timer rejoins consensus.
	n.ov.SendDirect(c.peer, &overlay.Packet{
		Kind:        overlay.KindCatchupReq,
		CatchupFrom: n.last.LedgerSeq + 1,
	})
	n.Start()
	if c.onDone != nil {
		c.onDone(replayed)
	}
}

// fileKindLabel maps an archive path to its metric label.
func fileKindLabel(rel string) string {
	switch {
	case strings.HasPrefix(rel, "headers/"):
		return "header"
	case strings.HasPrefix(rel, "txsets/"):
		return "txset"
	case strings.HasPrefix(rel, "buckets/"):
		return "bucket"
	case strings.HasPrefix(rel, "checkpoints/"):
		return "checkpoint"
	default:
		return "other"
	}
}
