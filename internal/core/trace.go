package core

import (
	"context"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
)

// Tracing hooks: when a trace rides the context (internal/obs), the
// scenario evaluations and searches record their stage of the request's
// latency decomposition — which eval tier actually answered
// ("eval-backend": closed-form chains / pivot / simplex / exact, and
// whether the simplex answered as a fallback) and what the order-space
// search did ("search": worker count, nodes expanded, subtrees pruned). With no trace on the context every
// hook is a no-op costing one context lookup.

// recordEvalBackend records one eval-backend stage from the session's
// last-backend attribution, bracketed by t0 and the context time source.
func recordEvalBackend(ctx context.Context, sess *eval.Session, mode eval.Mode, t0 time.Time) {
	backend, fallback := sess.Backend()
	obs.StageAt(ctx, 1, "eval-backend", t0, obs.Now(ctx),
		obs.String("mode", mode.String()),
		obs.String("backend", backend),
		obs.Bool("fallback", fallback))
}
