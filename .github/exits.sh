# exits N COMMAND [ARG...]: run COMMAND with its stdout discarded, and fail
# unless it exits with status N; stderr is left to the caller to redirect
exits() { code=0; "${@:2}" > /dev/null || code=$?; test "$code" -eq "$1"; }
