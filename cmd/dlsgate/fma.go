package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// fmaGate reads the assembly listing of
//
//	GOARCH=arm64 go build -gcflags=-S ./internal/eval/kern ./internal/eval 2>&1
//
// from stdin. The batch loops of kern (its ref* functions) and the solo
// FIFO chain they match bit for bit (eval's fifoTight) round every product
// before it is added, by an explicit float64 conversion; a dropped one lets
// the compiler fuse the multiply and the add into one instruction, which
// rounds once. amd64 fuses only math.FMA, so only a fusing architecture's
// listing shows it.
func fmaGate(_ string, stdout, stderr io.Writer) int {
	return checkFMA(os.Stdin, stdout, stderr)
}

// checkFMA fails when an arm64 fused multiply-add appears in a guarded
// function of the listing. A function starts at the line naming its
// symbol and "STEXT"; its instructions follow, one per line.
func checkFMA(listing io.Reader, stdout, stderr io.Writer) int {
	guarded, fused := 0, 0
	inGuarded := false
	sc := bufio.NewScanner(listing)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 1 && fields[1] == "STEXT" {
			inGuarded = strings.HasPrefix(fields[0], "repro/internal/eval/kern.ref") ||
				fields[0] == "repro/internal/eval.(*Session).fifoTight"
			if inGuarded {
				guarded++
			}
			continue
		}
		if inGuarded && slices.ContainsFunc(fields, func(f string) bool {
			return f == "FMADDD" || f == "FMSUBD" || f == "FNMADDD" || f == "FNMSUBD"
		}) {
			fused++
			fmt.Fprintf(stderr, "dlsgate: fused multiply-add: %s\n", strings.TrimSpace(sc.Text()))
		}
	}
	switch {
	case sc.Err() != nil:
		fmt.Fprintf(stderr, "dlsgate: reading the listing: %v\n", sc.Err())
		return 2
	case guarded == 0:
		fmt.Fprintln(stderr, "dlsgate: no guarded function in the listing")
		return 2
	case fused > 0:
		fmt.Fprintf(stderr, "dlsgate: %d fused multiply-adds in kern's ref* loops or eval's fifoTight: a float64(...) rounding was dropped\n", fused)
		return 1
	}
	fmt.Fprintf(stdout, "fma: %d guarded functions, no fused multiply-add\n", guarded)
	return 0
}
