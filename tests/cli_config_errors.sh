#!/usr/bin/env bash
# cli_config_errors — dopesim_cli must turn a bad configuration into the
# documented usage error: exit status 2 and a "dopesim: ..." message on
# stderr, never an uncaught exception (exit 134) or a silent success.
#
# Usage: tests/cli_config_errors.sh path/to/dopesim_cli
set -uo pipefail

cli=${1:?usage: cli_config_errors.sh path/to/dopesim_cli}
status=0

expect_usage_error() {
  local err code
  err=$("$cli" --duration-s 1 "$@" 2>&1 >/dev/null)
  code=$?
  if [[ "$code" -ne 2 || "$err" != dopesim:* ]]; then
    echo "cli_config_errors: '$*' exited $code with: $err" >&2
    status=1
  fi
}

expect_usage_error --zones 2 --attack-zone 5
expect_usage_error --zones 1 --attack-zone 5
expect_usage_error --attack-zone 1
expect_usage_error --servers 0

if [[ "$status" -eq 0 ]]; then
  echo "cli_config_errors: every bad config exits 2 with a dopesim: message"
fi
exit "$status"
