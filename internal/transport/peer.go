package transport

import (
	"net"
	"sync"

	"stellar/internal/simnet"
)

// peer is one authenticated connection. Outbound frames pass through a
// bounded deque drained by a dedicated writer goroutine, which takes every
// queued frame each time it wakes and writes them with one call
// (net.Buffers: one writev on a TCP connection). Frames the writer holds
// count against the queue's limit until their write returns, so a slow
// peer's connection buffers at most limit+1 frames, as when frames were
// written one at a time; when it fills, the oldest queued frame is shed.
// Enqueue therefore never
// blocks: consensus keeps its cadence and a laggard peer recovers via
// catch-up rather than by stalling everyone else (the same policy
// stellar-core applies to flooded traffic).
type peer struct {
	id     simnet.Addr
	conn   net.Conn
	dialed bool // we initiated the connection (tie-break bookkeeping)
	// ins holds this remote's resolved metric children (set by the
	// manager right after the handshake, before any traffic flows).
	ins *peerInstruments

	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]byte // encoded frames, oldest first
	taken  int      // frames the writer holds, not yet written
	limit  int
	closed bool

	done chan struct{} // closed once the peer is torn down
}

func newPeer(id simnet.Addr, conn net.Conn, dialed bool, queueLimit int) *peer {
	p := &peer{id: id, conn: conn, dialed: dialed, limit: queueLimit, done: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// enqueue queues one encoded frame for the writer, shedding the oldest
// queued frame when the queue and the writer's batch together hold limit
// frames. Returns how many frames were shed (0 or 1).
func (p *peer) enqueue(frame []byte) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0
	}
	shed := 0
	if len(p.queue) > 0 && len(p.queue)+p.taken >= p.limit {
		p.queue = p.queue[1:]
		shed = 1
	}
	p.queue = append(p.queue, frame)
	p.cond.Signal()
	return shed
}

// take blocks until frames are queued or the peer closes, then hands the
// writer every queued frame, oldest first, and gives the queue spare's
// storage in their place. The writer calls it once its previous batch is
// written, so only this batch counts as taken.
func (p *peer) take(spare [][]byte) ([][]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.taken = 0
	for len(p.queue) == 0 && !p.closed {
		p.cond.Wait()
	}
	if p.closed {
		return nil, false
	}
	batch := p.queue
	p.queue = spare
	p.taken = len(batch)
	return batch, true
}

// close releases the writer and the connection; idempotent.
func (p *peer) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.queue = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	p.conn.Close()
	close(p.done)
}

// writeLoop drains the queue onto the connection, one write per wakeup,
// until the peer closes or a write fails (the manager tears the peer down
// on return). onWrite is told the bytes of each write.
func (p *peer) writeLoop(onWrite func(frameBytes int)) error {
	var spare [][]byte
	for {
		batch, ok := p.take(spare)
		if !ok {
			return nil
		}
		bufs := net.Buffers(batch)
		n, err := bufs.WriteTo(p.conn)
		if err != nil {
			return err
		}
		if onWrite != nil {
			onWrite(int(n))
		}
		// WriteTo has let go of every frame; the storage is the next spare.
		spare = batch[:0]
	}
}
