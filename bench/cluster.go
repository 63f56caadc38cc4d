package main

import (
	"bytes"
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
	"unsafe"
)

// node is one stellar-node OS process of the quorum under test.
type node struct {
	Label   string
	Argv    []string
	CPU     int    // the CPU the process is pinned to
	HTTP    string // base URL of its horizon API
	DataDir string
	dir     string // working directory: data dir, log, crash bundles
	cmd     *exec.Cmd
	done    chan struct{} // closed once the process has been reaped
}

// cluster owns the node processes of one run. Every child is its own
// process group; Stop kills the groups on every returning path, and the
// parent-death signal covers the paths that do not return (os.Exit, a
// signal, a crash): a quorum leaked by an aborted run would flood duplicate
// transactions into the next one.
type cluster struct {
	bin   string
	nodes []*node
	http  *http.Client
	cpus  cpuSet // what this process may run on, restored after each fork
}

// cpuSet is a sched_setaffinity mask.
type cpuSet [16]uint64

func (s *cpuSet) list() []int {
	var out []int
	for i := 0; i < len(s)*64; i++ {
		if s[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// affinity gets or sets the calling thread's CPU mask. The callers run on
// the main goroutine, which main locks to its thread.
func affinity(call uintptr, set *cpuSet) error {
	if _, _, errno := syscall.RawSyscall(call, 0, unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set))); errno != 0 {
		return errno
	}
	return nil
}

// freePorts asks the kernel for n unused loopback ports. They are released
// again before the nodes bind them, which is a small race the boot timeout
// turns into a failed run, never into a wrong measurement.
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

// startCluster boots n validators over loopback TCP at production
// defaults: the only flags are identity, addresses, the 1 s interval and
// the data dir.
func startCluster(bin, dir string, n int) (*cluster, error) {
	ports, err := freePorts(2 * n)
	if err != nil {
		return nil, fmt.Errorf("choosing ports: %w", err)
	}
	labels := make([]string, n)
	for i := range labels {
		labels[i] = "node-" + strconv.Itoa(i)
	}
	abs, err := filepath.Abs(bin) // the nodes run in their own directories
	if err != nil {
		return nil, err
	}
	c := &cluster{
		bin: abs,
		// One client for the whole run. The load phase keeps at most two
		// requests in flight, so two idle connections per node are reused
		// for every request.
		http: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxIdleConns: 64, IdleConnTimeout: time.Minute},
		},
	}
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &c.cpus); err != nil {
		return nil, fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpus := c.cpus.list()
	for i, label := range labels {
		var peers []string
		for j := range labels {
			if j != i {
				peers = append(peers, "127.0.0.1:"+strconv.Itoa(ports[j]))
			}
		}
		nd := &node{
			Label:   label,
			CPU:     cpus[i%len(cpus)],
			HTTP:    "http://127.0.0.1:" + strconv.Itoa(ports[n+i]),
			dir:     filepath.Join(dir, "n"+strconv.Itoa(i)),
			DataDir: filepath.Join(dir, "n"+strconv.Itoa(i), "data"),
		}
		nd.Argv = []string{"stellar-node",
			"-seed", label,
			"-quorum", strings.Join(labels, ","),
			"-listen", "127.0.0.1:" + strconv.Itoa(ports[i]),
			"-peers", strings.Join(peers, ","),
			"-horizon", "127.0.0.1:" + strconv.Itoa(ports[n+i]),
			"-interval", "1s",
			"-data-dir", "data",
		}
		if err := os.MkdirAll(nd.dir, 0o755); err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
	}
	for _, nd := range c.nodes {
		if err := c.start(nd); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// start launches (or relaunches) one node, appending to its log.
//
// The node is pinned to one CPU, node i to the i-th CPU modulo their
// number. The reference box has two cores for three to seven validators
// and the generator; left to the kernel's balancer a run settles into one
// of two scheduling regimes that last the whole run, 50 ms of close
// overhead and 30 % of accounted CPU apart, and say nothing about the code.
// One validator per core is also nearer the deployment the paper describes
// than validators migrating between cores. A child inherits the mask of the
// thread that forks it, so the mask is narrowed around the fork.
func (c *cluster) start(nd *node) error {
	logf, err := os.OpenFile(filepath.Join(nd.dir, "log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(c.bin, nd.Argv[1:]...)
	cmd.Dir = nd.dir
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	var one cpuSet
	one[nd.CPU/64] = 1 << (nd.CPU % 64)
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	err = cmd.Start()
	if rerr := affinity(syscall.SYS_SCHED_SETAFFINITY, &c.cpus); rerr != nil {
		return fmt.Errorf("restoring the CPU mask: %w", rerr)
	}
	if err != nil {
		return fmt.Errorf("starting %s: %w", nd.Label, err)
	}
	nd.cmd, nd.done = cmd, make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // exit status is irrelevant: nodes only ever die by signal here
		close(done)
	}(cmd, nd.done)
	return nil
}

// signal sends sig to the node's process group and waits for it to end;
// past the grace period it kills the group.
func (nd *node) signal(sig syscall.Signal, grace time.Duration) {
	if nd.cmd == nil {
		return
	}
	_ = syscall.Kill(-nd.cmd.Process.Pid, sig)
	select {
	case <-nd.done:
	case <-time.After(grace):
		_ = syscall.Kill(-nd.cmd.Process.Pid, syscall.SIGKILL)
		<-nd.done
	}
	nd.cmd = nil
}

// Stop kills every node and waits until each has ended. Nothing is lost:
// the archive is fsynced per ledger and the run has read what it needs.
func (c *cluster) Stop() {
	for _, nd := range c.nodes {
		if nd.cmd != nil {
			_ = syscall.Kill(-nd.cmd.Process.Pid, syscall.SIGKILL)
		}
	}
	for _, nd := range c.nodes {
		if nd.cmd != nil {
			<-nd.done
			nd.cmd = nil
		}
	}
	c.http.CloseIdleConnections()
}

// pids lists the live node processes, for /proc accounting.
func (c *cluster) pids() []int {
	var out []int
	for _, nd := range c.nodes {
		if nd.cmd != nil {
			out = append(out, nd.cmd.Process.Pid)
		}
	}
	return out
}

// keepLogs copies the node logs to dst, for a failed run.
func (c *cluster) keepLogs(dst string) {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return
	}
	for _, nd := range c.nodes {
		if data, err := os.ReadFile(filepath.Join(nd.dir, "log")); err == nil {
			_ = os.WriteFile(filepath.Join(dst, nd.Label+".log"), data, 0o644)
		}
	}
}

// get performs one GET and returns status and body. The body is always
// drained so the keep-alive connection is reused.
func (c *cluster) get(url string) (int, []byte, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// ledgerInfo is the part of horizon's ledger view the benchmark reads.
type ledgerInfo struct {
	Sequence uint32 `json:"sequence"`
	Hash     string `json:"hash"`
}

// ledger fetches /ledgers/{which} from a node; which is "latest" or a
// sequence number.
func (c *cluster) ledger(nd *node, which string) (ledgerInfo, error) {
	var li ledgerInfo
	status, body, err := c.get(nd.HTTP + "/ledgers/" + which)
	if err != nil {
		return li, err
	}
	if status != http.StatusOK {
		return li, fmt.Errorf("%s /ledgers/%s: status %d", nd.Label, which, status)
	}
	err = json.Unmarshal(body, &li)
	return li, err
}

// metrics scrapes a node's registry.
func (c *cluster) metrics(nd *node) (scrape, error) {
	status, body, err := c.get(nd.HTTP + "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: status %d", nd.Label, status)
	}
	return parseProm(bytes.NewReader(body))
}

// waitLedger blocks until every node has closed ledger seq.
func (c *cluster) waitLedger(seq uint32, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, nd := range c.nodes {
		for {
			li, err := c.ledger(nd, "latest")
			if err == nil && li.Sequence >= seq {
				break
			}
			select {
			case <-nd.done:
				return fmt.Errorf("%s exited during boot", nd.Label)
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never reached ledger %d in %v", nd.Label, seq, timeout)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

// procSched returns, summed over every thread of the given processes, the
// time spent on a CPU and the time spent runnable but waiting for one, from
// /proc/<pid>/task/<tid>/schedstat. The scheduler keeps these to the
// nanosecond; utime+stime in /proc/<pid>/stat are sampled at the 10 ms tick,
// which nodes that wake on timers are correlated with.
func procSched(pids []int) (onCPU, waiting time.Duration, err error) {
	for _, pid := range pids {
		tasks, err := filepath.Glob("/proc/" + strconv.Itoa(pid) + "/task/*/schedstat")
		if err != nil || len(tasks) == 0 {
			return 0, 0, fmt.Errorf("no schedstat for pid %d", pid)
		}
		for _, path := range tasks {
			data, err := os.ReadFile(path)
			if err != nil {
				continue // the thread exited between the glob and the read
			}
			var run, wait int64
			if _, err := fmt.Sscan(string(data), &run, &wait); err != nil {
				return 0, 0, fmt.Errorf("%s: %w", path, err)
			}
			onCPU += time.Duration(run)
			waiting += time.Duration(wait)
		}
	}
	return onCPU, waiting, nil
}

// procPeakRSS returns the largest VmHWM among the processes, in bytes.
func procPeakRSS(pids []int) (int64, error) {
	var peak int64
	for _, pid := range pids {
		data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			f := strings.Fields(line)
			if len(f) < 2 {
				break
			}
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return 0, err
			}
			if kb<<10 > peak {
				peak = kb << 10
			}
		}
	}
	return peak, nil
}
