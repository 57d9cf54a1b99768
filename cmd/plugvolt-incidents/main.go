// plugvolt-incidents inspects incident bundle files written by the flight
// recorder (-incidents-out on plugvolt-guard and plugvolt-attack). A file is
// framed bundles back to back; every subcommand decodes it all-or-nothing,
// so a corrupt frame is an error, never a silently partial listing.
//
// Usage:
//
//	plugvolt-incidents -list incidents.bin
//	plugvolt-incidents -list -n 2 incidents.bin         # 2nd bundle only
//	plugvolt-incidents -timeline incidents.bin          # every bundle
//	plugvolt-incidents -timeline -n 2 incidents.bin     # 2nd bundle only
//	plugvolt-incidents -diff a.bin b.bin                # exit 1 when they differ
//
// Exit codes follow diff(1): 0 success/identical, 1 bundles differ, 2 error.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"plugvolt/internal/buildinfo"
	"plugvolt/internal/flight"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: flag parsing, decoding,
// rendering and the exit-code policy, with no direct os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plugvolt-incidents", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list the bundles in the file (one line each); the default mode")
		timeline = fs.Bool("timeline", false, "print each selected bundle as a human-readable incident timeline")
		diff     = fs.Bool("diff", false, "compare the selected bundle of two files field by field; exit 1 when they differ")
		n        = fs.Int("n", 0, "select the n-th bundle in the file (1-based); 0 means every bundle (-list, -timeline) or the first (-diff)")
		version  = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		buildinfo.Fprint(stdout, "plugvolt-incidents")
		return 0
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "plugvolt-incidents:", err)
		return 2
	}

	if *diff {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-diff needs exactly two files, got %d", fs.NArg()))
		}
		var pair [2]*flight.Bundle
		for i := range pair {
			bundles, err := selectBundles(fs.Arg(i), cmp.Or(*n, 1))
			if err != nil {
				return fail(err)
			}
			pair[i] = bundles[0]
		}
		same, err := flight.Diff(stdout, pair[0], pair[1])
		if err != nil {
			return fail(err)
		}
		if !same {
			return 1
		}
		return 0
	}
	mode := "-list"
	if *timeline {
		mode = "-timeline"
	} else if !*list && fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	if fs.NArg() != 1 {
		return fail(fmt.Errorf("%s needs exactly one file, got %d", mode, fs.NArg()))
	}
	bundles, err := selectBundles(fs.Arg(0), *n)
	if err != nil {
		return fail(err)
	}
	if *timeline {
		for i, b := range bundles {
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			if err := b.WriteTimeline(stdout); err != nil {
				return fail(err)
			}
		}
		return 0
	}
	for i, b := range bundles {
		fmt.Fprintf(stdout, "%3d  %s\n", cmp.Or(*n, 1)+i, b.Label())
		if b.Detail != "" {
			fmt.Fprintf(stdout, "     %s\n", b.Detail)
		}
	}
	if len(bundles) == 0 {
		fmt.Fprintln(stdout, "no incidents")
	}
	return 0
}

// selectBundles decodes every framed bundle in the file and keeps the
// 1-based n-th, or all of them when n is 0.
func selectBundles(path string, n int) ([]*flight.Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	bundles, err := flight.DecodeAll(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if n == 0 {
		return bundles, nil
	}
	if n < 1 || n > len(bundles) {
		return nil, fmt.Errorf("%s: bundle %d out of range (file has %d)", path, n, len(bundles))
	}
	return bundles[n-1 : n], nil
}
