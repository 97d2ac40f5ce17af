// gddr-bench is the repository's benchmark. It is a module of its own so the
// root module's build and tests never depend on it; the replace directive
// and the gddr/ import-path prefix let it reach gddr and gddr/internal/...
// exactly as a package inside the root module would.
module gddr/cmd/gddr-bench

go 1.24

require gddr v0.0.0

replace gddr => ../..
