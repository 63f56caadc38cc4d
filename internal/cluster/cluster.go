//go:build linux

// Package cluster boots a quorum of stellar-node OS processes on loopback
// TCP. Each validator is a child process with its own overlay and HTTP
// ports, working directory and log, so a test sees what an operator sees:
// real sockets, real handshakes, real signals. The smoke tests beside it
// (build tag smoke, `make smoke`) are its users.
package cluster

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stellar/internal/ledger"
	"stellar/internal/obs/collect"
	"stellar/internal/stellarcrypto"
)

// Build compiles cmd/stellar-node into dir and returns the binary's path.
// It must run inside the module, which a test's working directory is.
func Build(dir string) (string, error) {
	bin := filepath.Join(dir, "stellar-node")
	out, err := exec.Command("go", "build", "-o", bin, "stellar/cmd/stellar-node").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("building stellar-node: %v\n%s", err, out)
	}
	return bin, nil
}

// Config describes a quorum.
type Config struct {
	Bin string // the stellar-node binary (Build)
	Dir string // holds one working directory per node
	// Validators is the size of the quorum: every node's -quorum lists
	// node-0 … node-(Validators-1), with a majority threshold.
	Validators int
	// Running is how many of them Start launches, the first ones; 0 means
	// all. StartNode launches the rest later.
	Running int
	// Args returns extra flags for node i. A relative path in them is
	// relative to the node's working directory.
	Args func(i int) []string
}

// Node is one validator process.
type Node struct {
	Label string // seed label, node-<i>
	URL   string // base URL of its horizon API
	Dir   string // working directory; its log is Dir/log
	argv  []string
	cmd   *exec.Cmd
	done  chan struct{} // closed once the process has been reaped
}

// Target names the node for the fleet collector.
func (nd *Node) Target() collect.Target { return collect.Target{Name: nd.Label, URL: nd.URL} }

// Cluster owns the node processes. Every child is its own process group
// and dies with its parent, so a test that panics or times out leaks no
// validator into the next one.
type Cluster struct {
	Nodes []*Node
	// Collect scrapes the nodes: metrics, alerts, quorum, span stores.
	Collect *collect.Client
	bin     string
	// seqs holds each funded load account's last used sequence number
	// (Fund, Pay).
	seqs []uint64
}

// Start boots the quorum's first cfg.Running validators. On error no
// process is left running.
func Start(cfg Config) (*Cluster, error) {
	n := cfg.Validators
	ports, err := freePorts(2 * n)
	if err != nil {
		return nil, fmt.Errorf("choosing ports: %w", err)
	}
	labels := make([]string, n)
	for i := range labels {
		labels[i] = "node-" + strconv.Itoa(i)
	}
	c := &Cluster{bin: cfg.Bin, Collect: collect.NewClient(10 * time.Second)}
	for i, label := range labels {
		var peers []string
		for j := range labels {
			if j != i {
				peers = append(peers, "127.0.0.1:"+strconv.Itoa(ports[j]))
			}
		}
		nd := &Node{
			Label: label,
			URL:   "http://127.0.0.1:" + strconv.Itoa(ports[n+i]),
			Dir:   filepath.Join(cfg.Dir, label),
			// Four ledgers a second keep the tests short.
			argv: []string{
				"-seed", label,
				"-quorum", strings.Join(labels, ","),
				"-listen", "127.0.0.1:" + strconv.Itoa(ports[i]),
				"-peers", strings.Join(peers, ","),
				"-horizon", "127.0.0.1:" + strconv.Itoa(ports[n+i]),
				"-interval", "250ms",
				"-v",
			},
		}
		if cfg.Args != nil {
			nd.argv = append(nd.argv, cfg.Args(i)...)
		}
		if err := os.MkdirAll(nd.Dir, 0o755); err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, nd)
	}
	running := cfg.Running
	if running == 0 {
		running = n
	}
	for i := 0; i < running; i++ {
		if err := c.StartNode(i); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// freePorts asks the kernel for n unused loopback ports. They are released
// before the nodes bind them; a port taken in between fails the boot.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// StartNode launches node i, appending to its log.
func (c *Cluster) StartNode(i int) error {
	nd := c.Nodes[i]
	logf, err := os.OpenFile(filepath.Join(nd.Dir, "log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(c.bin, nd.argv...)
	cmd.Dir = nd.Dir
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", nd.Label, err)
	}
	nd.cmd, nd.done = cmd, make(chan struct{})
	go func(done chan struct{}) {
		_ = cmd.Wait()
		close(done)
	}(nd.done)
	return nil
}

// running lists the nodes whose process has been started.
func (c *Cluster) running() []*Node {
	var out []*Node
	for _, nd := range c.Nodes {
		if nd.cmd != nil {
			out = append(out, nd)
		}
	}
	return out
}

// Targets names the running nodes for the fleet collector.
func (c *Cluster) Targets() []collect.Target {
	var out []collect.Target
	for _, nd := range c.running() {
		out = append(out, nd.Target())
	}
	return out
}

// Signal sends sig to the node's process group: SIGSTOP wedges a
// validator with its sockets still open, SIGCONT thaws it.
func (nd *Node) Signal(sig syscall.Signal) error {
	if nd.cmd == nil {
		return fmt.Errorf("%s is not running", nd.Label)
	}
	return syscall.Kill(-nd.cmd.Process.Pid, sig)
}

// Stop ends every node with SIGTERM, so each run exercises the graceful
// shutdown path, and kills whichever has not exited within five seconds.
func (c *Cluster) Stop() {
	nodes := c.running()
	for _, nd := range nodes {
		_ = nd.Signal(syscall.SIGCONT)
		_ = nd.Signal(syscall.SIGTERM)
	}
	grace := time.After(5 * time.Second)
	for _, nd := range nodes {
		select {
		case <-nd.done:
		case <-grace:
			_ = nd.Signal(syscall.SIGKILL)
			<-nd.done
		}
		nd.cmd = nil
	}
	c.Collect.HTTP.CloseIdleConnections()
}

// LogTail returns the last lines of the node's log.
func (nd *Node) LogTail(lines int) string {
	data, err := os.ReadFile(filepath.Join(nd.Dir, "log"))
	if err != nil {
		return err.Error()
	}
	all := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}

// get performs one GET against the node and returns status and body.
func (c *Cluster) get(nd *Node, path string) (int, []byte, error) {
	resp, err := c.Collect.HTTP.Get(nd.URL + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// Ledger fetches /ledgers/{which}; which is "latest" or a sequence number.
func (c *Cluster) Ledger(nd *Node, which string) (collect.LedgerInfo, error) {
	var li collect.LedgerInfo
	status, body, err := c.get(nd, "/ledgers/"+which)
	if err != nil {
		return li, err
	}
	if status != http.StatusOK {
		return li, fmt.Errorf("%s /ledgers/%s: status %d", nd.Label, which, status)
	}
	return li, json.Unmarshal(body, &li)
}

// WaitLedger blocks until each of nodes (every running node when none are
// named) has closed ledger seq.
func (c *Cluster) WaitLedger(seq uint32, timeout time.Duration, nodes ...*Node) error {
	if len(nodes) == 0 {
		nodes = c.running()
	}
	deadline := time.Now().Add(timeout)
	for _, nd := range nodes {
		for {
			li, err := c.Ledger(nd, "latest")
			if err == nil && li.Sequence >= seq {
				break
			}
			select {
			case <-nd.done:
				return fmt.Errorf("%s exited", nd.Label)
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s at ledger %d, not %d, after %v (last error: %v)", nd.Label, li.Sequence, seq, timeout, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

// networkID is the ID of stellar-node's default network passphrase, which
// every envelope the harness signs is signed for.
var networkID = stellarcrypto.HashBytes([]byte("stellar-node-network"))

// Result is how horizon answered one submission.
type Result struct {
	Status     int
	Hash       string // the transaction's hash, when accepted
	Err        string
	RetryAfter int64 // seconds, from the Retry-After header
}

// Submit posts one signed transaction as an envelope. Only a transport
// failure is an error; a 4xx or 5xx answer is a Result.
func (c *Cluster) Submit(nd *Node, tx *ledger.Transaction) (Result, error) {
	body, err := json.Marshal(map[string]string{"envelope_xdr": hex.EncodeToString(tx.MarshalSignedXDR())})
	if err != nil {
		return Result{}, err
	}
	resp, err := c.Collect.HTTP.Post(nd.URL+"/transactions", "application/json", bytes.NewReader(body))
	if err != nil {
		return Result{}, err
	}
	defer resp.Body.Close()
	res := Result{Status: resp.StatusCode}
	res.RetryAfter, _ = strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64)
	var payload struct {
		Hash  string `json:"hash"`
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&payload)
	res.Hash, res.Err = payload.Hash, payload.Error
	return res, nil
}

// account returns the key pair and account ID of load account i.
func account(i int) (stellarcrypto.KeyPair, ledger.AccountID) {
	kp := stellarcrypto.KeyPairFromString("load-acct-" + strconv.Itoa(i))
	return kp, ledger.AccountIDFromPublicKey(kp.Public)
}

// signed builds and signs a transaction from kp's account at sequence
// number seq, paying the base fee per operation.
func signed(kp stellarcrypto.KeyPair, seq uint64, ops ...ledger.OpBody) *ledger.Transaction {
	tx := &ledger.Transaction{
		Source: ledger.AccountIDFromPublicKey(kp.Public),
		Fee:    ledger.DefaultBaseFee * ledger.Amount(len(ops)),
		SeqNum: seq,
	}
	for _, op := range ops {
		tx.Operations = append(tx.Operations, ledger.Operation{Body: op})
	}
	tx.Sign(networkID, kp)
	return tx
}

// payment is load account i's unit payment to account (i+1) mod n at
// sequence number seq.
func payment(i, n int, seq uint64) *ledger.Transaction {
	kp, _ := account(i)
	_, to := account((i + 1) % n)
	return signed(kp, seq, &ledger.Payment{Destination: to, Asset: ledger.NativeAsset(), Amount: ledger.One})
}

// Pay submits load account i's next unit payment to account (i+1) mod n
// through nd. The harness signs on the client side, as a wallet does:
// Fund read each account's sequence number from the node once, and a
// payment the node took (202 or 200) uses up the next one, so a refused
// payment's number is offered again.
func (c *Cluster) Pay(nd *Node, i, n int) (Result, error) {
	res, err := c.Submit(nd, payment(i, n, c.seqs[i]+1))
	if err == nil && (res.Status == http.StatusAccepted || res.Status == http.StatusOK) {
		c.seqs[i]++
	}
	return res, err
}

// accountSeq reads an account's sequence number from nd; ok is false while
// the account does not exist there.
func (c *Cluster) accountSeq(nd *Node, id ledger.AccountID) (seq uint64, ok bool, err error) {
	status, body, err := c.get(nd, "/accounts/"+string(id))
	if err != nil || status != http.StatusOK {
		return 0, false, err
	}
	var info struct {
		Sequence uint64 `json:"sequence"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return 0, false, err
	}
	return info.Sequence, true, nil
}

// Fund creates load accounts 0 … n-1 from the genesis demo-master account
// in one transaction submitted to nd, waits until nd has applied it, and
// reads each account's sequence number for Pay.
func (c *Cluster) Fund(nd *Node, n int, timeout time.Duration) error {
	master := stellarcrypto.KeyPairFromString("demo-master")
	seq, ok, err := c.accountSeq(nd, ledger.AccountIDFromPublicKey(master.Public))
	if err != nil || !ok {
		return fmt.Errorf("funding: reading demo-master: found %v, %v", ok, err)
	}
	var ops []ledger.OpBody
	for i := 0; i < n; i++ {
		_, id := account(i)
		ops = append(ops, &ledger.CreateAccount{Destination: id, StartingBalance: 1000 * ledger.One})
	}
	res, err := c.Submit(nd, signed(master, seq+1, ops...))
	if err != nil {
		return err
	}
	if res.Status != http.StatusAccepted {
		return fmt.Errorf("funding: status %d: %s", res.Status, res.Err)
	}
	c.seqs = make([]uint64, n)
	for i := range c.seqs {
		_, id := account(i)
		for deadline := time.Now().Add(timeout); ; time.Sleep(100 * time.Millisecond) {
			if c.seqs[i], ok, err = c.accountSeq(nd, id); err == nil && ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("funding: account %s absent after %v", id, timeout)
			}
		}
	}
	return nil
}
