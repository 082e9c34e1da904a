// jm-serve is the multi-tenant simulation daemon: it hosts many
// independent J-Machine sessions behind the HTTP/JSON API of
// internal/serve, persisted as a checkpoint plus a request journal.
//
// Every session lives in its own subdirectory of -dir (spec.json +
// state.ckpt + journal + optional observability streams). At most
// -max-resident sessions are held in memory; the rest are restored
// transparently on their next request. Every mutating request is
// appended to its session's journal and synced before the reply, so a
// restart with the same -dir recovers every session at its last
// acknowledged request, whether the daemon drained on SIGINT/SIGTERM or
// was killed with -9 (serve_smoke.sh exercises exactly that).
//
// Usage:
//
//	jm-serve [-addr 127.0.0.1:8034] [-dir jm-serve-state] [-max-resident 8]
//
// See docs/SERVE.md for the API reference.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"jmachine/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8034", "listen address")
	dir := flag.String("dir", "jm-serve-state", "session state directory (sessions found here are recovered)")
	maxResident := flag.Int("max-resident", serve.DefaultMaxResident,
		"sessions kept in memory; beyond this the least-recently-used is evicted until its next request")
	flag.Parse()
	log.SetPrefix("jm-serve: ")
	log.SetFlags(0)

	g, err := serve.NewManager(*dir, *maxResident)
	if err != nil {
		log.Fatal(err)
	}
	if n := len(g.List()); n > 0 {
		log.Printf("recovered %d session(s) from %s", n, *dir)
	}
	for _, b := range g.Stat().Broken {
		log.Printf("skipped broken session directory %s", b)
	}

	srv := &http.Server{Addr: *addr, Handler: serve.NewHandler(g)}
	drained := make(chan struct{})
	go func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		log.Print("signal received: draining requests")
		if err := srv.Shutdown(context.Background()); err != nil {
			log.Printf("drain: %v", err)
		}
		close(drained)
	}()

	log.Printf("listening on %s (state dir %s, max %d resident)", *addr, *dir, *maxResident)
	if err := srv.ListenAndServe(); err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-drained
	// All handlers have returned: close every session and exit.
	if err := g.Shutdown(); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	log.Printf("closed %d session(s); bye", len(g.List()))
}
