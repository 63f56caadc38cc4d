package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"stellar/internal/obs/collect"
)

// cmdBenchJSON converts `go test -bench` output piped on stdin into the
// schema-versioned stellar-bench/v1 micro report (BENCH_micro.json), while
// echoing the bench lines so `make bench-micro` still shows them:
//
//	go test -run '^$' -bench . -benchtime 1x . | stellar-obs benchjson BENCH_micro.json
//
// The path "-" writes the report to stdout.
func cmdBenchJSON(args []string) error {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: stellar-obs benchjson report.json < bench-output")
		os.Exit(2)
	}
	path := args[0]
	rows, err := collect.ParseGoBench(echoBench(os.Stdin))
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("benchjson: no Benchmark result lines on stdin")
	}
	report := &collect.BenchReport{Kind: "micro", GeneratedUnix: time.Now().Unix(), Micro: rows}
	if path == "-" {
		return collect.WriteBench(os.Stdout, report)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = collect.WriteBench(f, report)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmark rows → %s\n", len(rows), path)
	return nil
}

// echoBench copies bench output through while buffering it, so the make
// target still shows the familiar `go test -bench` lines on the console.
func echoBench(r io.Reader) io.Reader {
	var b strings.Builder
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fmt.Println(sc.Text())
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	return strings.NewReader(b.String())
}
