#include "testing/oracle.h"

#include "common/error.h"

namespace cnvm::torture {

void
Op::applyTo(ds::KvStructure& kv) const
{
    if (kind == insert)
        kv.insert(key, val);
    else if (kind == remove)
        kv.remove(key);
}

void
ShadowOracle::note(const Op& op)
{
    if (op.kind == Op::insert)
        shadow_[op.key] = op.val;
    else if (op.kind == Op::remove)
        shadow_.erase(op.key);
}

std::string
ShadowOracle::verify(ds::KvStructure& kv) const
{
    try {
        if (!kv.selfCheck())
            return strprintf("%s: structure invariants violated",
                             kv.name());
        ds::LookupResult r;
        for (const auto& [key, val] : shadow_) {
            if (!kv.lookup(key, &r))
                return strprintf("%s: key \"%s\" missing (expected "
                                 "%zu-byte value)",
                                 kv.name(), key.c_str(), val.size());
            if (r.str() != val)
                return strprintf("%s: key \"%s\" torn: got %zu bytes, "
                                 "expected %zu bytes",
                                 kv.name(), key.c_str(),
                                 static_cast<size_t>(r.len),
                                 val.size());
        }
        // Keys the drivers never generate: must stay absent.
        for (int i = 0; i < 4; i++) {
            std::string probe = strprintf("zz-absent-%d", i);
            if (shadow_.count(probe) == 0 && kv.lookup(probe, &r))
                return strprintf("%s: phantom key \"%s\" present",
                                 kv.name(), probe.c_str());
        }
    } catch (const PanicError& e) {
        return strprintf("%s: panic during verification: %s",
                         kv.name(), e.what());
    } catch (const FatalError& e) {
        return strprintf("%s: fatal error during verification: %s",
                         kv.name(), e.what());
    }
    return {};
}

}  // namespace cnvm::torture
