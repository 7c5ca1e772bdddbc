(** The fixed-size worker-domain {!Pool} behind the check server.

    Design rule: a BDD manager is used by one domain at a time.  The
    server serialises the requests for one warm model on its cache
    entry's lock, so the hash-consing hot paths never take a lock. *)

module Pool = Pool

let default_jobs () = Domain.recommended_domain_count ()
(** The runtime's recommendation for how many domains this machine can
    usefully run — the meaning of [--jobs 0]. *)
